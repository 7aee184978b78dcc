package igp

import (
	"context"
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/partition"
)

// simFixture is one repartitioning problem: a grown graph and the
// assignment of its predecessor.
type simFixture struct {
	name string
	g    *Graph
	a    *Assignment
}

// paperFirstStep returns the first refinement of one of the paper's mesh
// families under the base graph's RSB partition (P = 32, seed 1994) — the
// row igpbench's speedup table and Figures 11/14 start from.
func paperFirstStep(t *testing.T, name string, family func(int64) (*MeshSequence, error)) simFixture {
	t.Helper()
	seq, err := family(1994)
	if err != nil {
		t.Fatal(err)
	}
	base, err := PartitionRSB(seq.Base, 32, 1994)
	if err != nil {
		t.Fatal(err)
	}
	return simFixture{name, seq.Steps[0].Graph, base}
}

// orphanGrid is a 12×16 grid in four column stripes grown by 20 attached
// vertices on the last stripe plus a 4-vertex cluster attached to nothing,
// which phase 1 places whole on the least-loaded partition.
func orphanGrid() simFixture {
	g := graph.Grid(12, 16)
	a := partition.New(g.Order(), 4)
	for v := range a.Part {
		a.Part[v] = int32(v % 16 / 4)
	}
	prev := Vertex(15)
	for k := 0; k < 20; k++ {
		v := g.AddVertex(1)
		_ = g.AddEdge(v, prev, 1)
		if k%3 == 0 {
			prev = v
		}
	}
	island := g.AddVertex(1)
	for k := 0; k < 3; k++ {
		v := g.AddVertex(1)
		_ = g.AddEdge(v, island, 1)
	}
	return simFixture{"orphanGrid", g, a}
}

// TestSimulatorMatchesDenseRepartition: the simulator runs the product
// pipeline with the dense tableau on every rank, so at every rank count it
// must leave exactly the assignment Repartition leaves under
// WithSolver("dense") with the same options.
func TestSimulatorMatchesDenseRepartition(t *testing.T) {
	fixtures := []simFixture{paperFirstStep(t, "meshA", PaperMeshA), paperFirstStep(t, "meshB", PaperMeshB), orphanGrid()}
	for _, f := range fixtures {
		for _, mode := range []struct {
			name string
			opts []Option
		}{{"IGP", nil}, {"IGPR", []Option{WithRefine()}}} {
			want := f.a.Clone()
			if _, err := Repartition(context.Background(), f.g, want, append([]Option{WithSolver("dense")}, mode.opts...)...); err != nil {
				t.Fatalf("%s %s: %v", f.name, mode.name, err)
			}
			for _, ranks := range []int{1, 2, 3, 4, 8} {
				got := f.a.Clone()
				if _, err := SimulateParallelRepartition(context.Background(), f.g, got, ranks, mode.opts...); err != nil {
					t.Fatalf("%s %s ranks=%d: %v", f.name, mode.name, ranks, err)
				}
				if !slices.Equal(got.Part, want.Part) {
					t.Fatalf("%s %s ranks=%d: simulator assignment differs from the dense engine's", f.name, mode.name, ranks)
				}
			}
		}
	}
}

// TestSimulatorHonoursTolerance: a tolerance reaches every rank's engine
// (the parent's simulator dropped it and balanced exactly).
func TestSimulatorHonoursTolerance(t *testing.T) {
	g, a := grownMesh(t, 400, 8, 30, 5)
	want := a.Clone()
	if _, err := Repartition(context.Background(), g, want, WithSolver("dense"), WithTolerance(2)); err != nil {
		t.Fatal(err)
	}
	exact := a.Clone()
	if _, err := Repartition(context.Background(), g, exact, WithSolver("dense")); err != nil {
		t.Fatal(err)
	}
	if slices.Equal(exact.Part, want.Part) {
		t.Fatal("fixture too easy: WithTolerance(2) changes nothing")
	}
	got := a.Clone()
	if _, err := SimulateParallelRepartition(context.Background(), g, got, 4, WithTolerance(2)); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.Part, want.Part) {
		t.Fatal("WithTolerance(2): simulator differs from Repartition(WithSolver(\"dense\"), WithTolerance(2))")
	}
}

// TestSimulatorForwardsObserver: a WithObserver callback sees rank 0's
// event stream, which is the dense sequential run's but for wall clock.
func TestSimulatorForwardsObserver(t *testing.T) {
	g, a := grownMesh(t, 400, 8, 30, 5)
	record := func(evs *[]Event) Option {
		return WithObserver(func(ev Event) {
			ev.Elapsed = 0
			*evs = append(*evs, ev)
		})
	}
	var want, got []Event
	if _, err := Repartition(context.Background(), g, a.Clone(), WithSolver("dense"), WithRefine(), record(&want)); err != nil {
		t.Fatal(err)
	}
	if _, err := SimulateParallelRepartition(context.Background(), g, a.Clone(), 3, WithRefine(), record(&got)); err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 || !slices.Equal(got, want) {
		t.Fatalf("simulator events %v\nwant %v", got, want)
	}
}

// TestSimulatorRejectsWhatItCannotHonour: options the simulator cannot
// run are errors naming the option, not silently dropped.
func TestSimulatorRejectsWhatItCannotHonour(t *testing.T) {
	g, a := grownMesh(t, 200, 4, 10, 3)
	for _, c := range []struct {
		name string
		opt  Option
	}{
		{"WithMultilevel", WithMultilevel()},
		{"WithBatches", WithBatches(2)},
		{"WithSolver", WithSolver("network")},
	} {
		_, err := SimulateParallelRepartition(context.Background(), g, a.Clone(), 2, c.opt)
		if err == nil || !strings.Contains(err.Error(), c.name) {
			t.Fatalf("%s: err = %v, want an error naming the option", c.name, err)
		}
	}
}

// TestSimulatorCancellationSweep cancels a 4-rank IGPR run of mesh A's
// first step at 40 deadlines, from 50 µs in 150 µs steps (an uncanceled
// run takes tens of milliseconds on a 2-CPU host). Ranks see a deadline
// at different points of the pipeline, so the first to see it leaves
// while its peers wait on it; every run must still return ErrCanceled
// (never hang) and leave a holding a valid replica.
func TestSimulatorCancellationSweep(t *testing.T) {
	f := paperFirstStep(t, "meshA", PaperMeshA)
	for k := 0; k < 40; k++ {
		deadline := 50*time.Microsecond + time.Duration(k)*150*time.Microsecond
		a := f.a.Clone()
		done := make(chan error, 1)
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), deadline)
			defer cancel()
			_, err := SimulateParallelRepartition(ctx, f.g, a, 4, WithRefine())
			done <- err
		}()
		var err error
		select {
		case err = <-done:
		case <-time.After(30 * time.Second):
			t.Fatalf("deadline %v: simulated run hung", deadline)
		}
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("deadline %v: err = %v, want ErrCanceled", deadline, err)
		}
		// a is untouched (the deadline beat phase 1) or a valid assignment.
		if err := a.Validate(f.g); err != nil && !slices.Equal(a.Part[:len(f.a.Part)], f.a.Part) {
			t.Fatalf("deadline %v: assignment left invalid: %v", deadline, err)
		}
	}
}
