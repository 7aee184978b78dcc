package engine

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/layering"
	"repro/internal/refine"
)

// requireSameLayer asserts two layerings agree on every exported field.
func requireSameLayer(t testing.TB, got, want *layering.Result, p int) {
	t.Helper()
	if !reflect.DeepEqual(got.Label, want.Label) {
		t.Fatal("Label diverges")
	}
	if !reflect.DeepEqual(got.Level, want.Level) {
		t.Fatal("Level diverges")
	}
	if !reflect.DeepEqual(got.Delta, want.Delta) {
		t.Fatal("Delta diverges")
	}
	for i := 0; i < p; i++ {
		for j := 0; j < p; j++ {
			gp, wp := got.Pool(int32(i), int32(j)), want.Pool(int32(i), int32(j))
			if len(gp) != len(wp) {
				t.Fatalf("pool(%d,%d) length %d, want %d", i, j, len(gp), len(wp))
			}
			for k := range gp {
				if gp[k] != wp[k] {
					t.Fatalf("pool(%d,%d)[%d] = %d, want %d", i, j, k, gp[k], wp[k])
				}
			}
		}
	}
}

// requireSameGains asserts two candidate sets agree on every exported
// field.
func requireSameGains(t testing.TB, got, want *refine.Candidates, p int) {
	t.Helper()
	if !reflect.DeepEqual(got.B, want.B) {
		t.Fatal("B diverges")
	}
	if !reflect.DeepEqual(got.Gain, want.Gain) {
		t.Fatal("Gain diverges")
	}
	for i := 0; i < p; i++ {
		for j := 0; j < p; j++ {
			gp, wp := got.Pool(int32(i), int32(j)), want.Pool(int32(i), int32(j))
			if len(gp) != len(wp) {
				t.Fatalf("pool(%d,%d) length diverges", i, j)
			}
			for k := range gp {
				if gp[k] != wp[k] {
					t.Fatalf("pool(%d,%d)[%d] diverges", i, j, k)
				}
			}
		}
	}
}

// requireSameBoundary asserts an engine's boundary list is the
// brute-force set in strictly ascending id order.
func requireSameBoundary(t testing.TB, got []graph.Vertex, want map[graph.Vertex]bool) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("boundary has %d vertices, want %d", len(got), len(want))
	}
	for i, v := range got {
		if i > 0 && got[i-1] >= v {
			t.Fatalf("boundary not strictly ascending: %d then %d at %d", got[i-1], v, i)
		}
		if !want[v] {
			t.Fatalf("vertex %d wrongly in boundary", v)
		}
	}
}

// TestParallelEngineKernelEquivalence drives one-worker and multi-worker
// engines through the same random edit sequence and requires
// bit-identical boundary sets, layerings and gain candidates at every
// step, for several worker counts.
func TestParallelEngineKernelEquivalence(t *testing.T) {
	for _, procs := range []int{2, 3, 7, 16} {
		gSeq, aSeq := editableGraph(t, 350, 7, 61)
		gPar := gSeq.Clone()
		aPar := aSeq.Clone()
		eSeq := New(gSeq, Options{Parallelism: 1})
		ePar := New(gPar, Options{Parallelism: procs})
		rngSeq := rand.New(rand.NewSource(71))
		rngPar := rand.New(rand.NewSource(71))
		for iter := 0; iter < 40; iter++ {
			for k := 0; k < 1+rngSeq.Intn(4); k++ {
				randomEdit(gSeq, aSeq, rngSeq)
			}
			for k := 0; k < 1+rngPar.Intn(4); k++ {
				randomEdit(gPar, aPar, rngPar)
			}
			requireSameBoundary(t, ePar.Boundary(aPar), bruteBoundary(gPar, aPar))
			laySeq, err := eSeq.Layer(context.Background(), aSeq)
			if err != nil {
				t.Fatal(err)
			}
			layPar, err := ePar.Layer(context.Background(), aPar)
			if err != nil {
				t.Fatal(err)
			}
			requireSameLayer(t, layPar, laySeq, aSeq.P)
			gSeqC, err := eSeq.Gains(aSeq, iter%2 == 0)
			if err != nil {
				t.Fatal(err)
			}
			gParC, err := ePar.Gains(aPar, iter%2 == 0)
			if err != nil {
				t.Fatal(err)
			}
			requireSameGains(t, gParC, gSeqC, aSeq.P)
		}
	}
}

// TestParallelRepartitionMatchesSequential is the end-to-end criterion:
// full IGPR repartitioning through multi-worker engines must produce
// the exact assignments, cuts and movement stats of the one-worker
// engine across an evolving graph.
func TestParallelRepartitionMatchesSequential(t *testing.T) {
	gBase, aBase := editableGraph(t, 300, 6, 83)
	for _, procs := range []int{2, 7} {
		gPar := gBase.Clone()
		aPar := aBase.Clone()
		ePar := New(gPar, Options{Refine: true, Parallelism: procs})
		rngSeq := rand.New(rand.NewSource(89))
		rngPar := rand.New(rand.NewSource(89))
		gS := gBase.Clone() // private one-worker copy per procs value
		aS := aBase.Clone()
		eS := New(gS, Options{Refine: true, Parallelism: 1})
		for step := 0; step < 5; step++ {
			for k := 0; k < 8; k++ {
				randomEdit(gS, aS, rngSeq)
				randomEdit(gPar, aPar, rngPar)
			}
			stS, errS := eS.Repartition(context.Background(), aS)
			stP, errP := ePar.Repartition(context.Background(), aPar)
			if (errS == nil) != (errP == nil) {
				t.Fatalf("procs=%d step %d: error mismatch: %v vs %v", procs, step, errS, errP)
			}
			if errS != nil {
				t.Skipf("procs=%d step %d: infeasible on this sequence: %v", procs, step, errS)
			}
			if !reflect.DeepEqual(aS.Part, aPar.Part) {
				t.Fatalf("procs=%d step %d: parallel assignment diverges", procs, step)
			}
			if stS.BalanceMoved != stP.BalanceMoved || stS.Stages != stP.Stages {
				t.Fatalf("procs=%d step %d: stats diverge", procs, step)
			}
			if stP.Parallelism != procs {
				t.Fatalf("procs=%d: Stats.Parallelism = %d", procs, stP.Parallelism)
			}
		}
	}
}

// TestParallelWorkerBusyReported: a parallel Repartition must roll up
// per-worker busy time for exactly the configured worker count.
func TestParallelWorkerBusyReported(t *testing.T) {
	g, a := editableGraph(t, 400, 8, 97)
	e := New(g, Options{Parallelism: 4})
	// Unbalance so at least one balance stage (and its layering) runs.
	moved := 0
	for v := range a.Part {
		if a.Part[v] == 0 && moved < 25 {
			a.Part[v] = 1
			moved++
		}
	}
	st, err := e.Repartition(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	if st.Parallelism != 4 {
		t.Fatalf("Parallelism = %d, want 4", st.Parallelism)
	}
	if len(st.WorkerBusy) != 4 {
		t.Fatalf("WorkerBusy has %d slots, want 4", len(st.WorkerBusy))
	}
	if st.WorkerBusy[0] <= 0 {
		t.Fatal("worker 0 reported no busy time")
	}
	// One-worker engines report no per-worker breakdown.
	g2, a2 := editableGraph(t, 100, 4, 98)
	e2 := New(g2, Options{Parallelism: 1})
	st2, err := e2.Repartition(context.Background(), a2)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Parallelism != 1 || len(st2.WorkerBusy) != 0 {
		t.Fatalf("one-worker stats: Parallelism=%d WorkerBusy=%v", st2.Parallelism, st2.WorkerBusy)
	}
}

// TestParallelismResolution: 0 resolves to GOMAXPROCS, negatives clamp
// to one worker.
func TestParallelismResolution(t *testing.T) {
	if got := (Options{}).procs(); got < 1 {
		t.Fatalf("default procs = %d", got)
	}
	if got := (Options{Parallelism: -3}).procs(); got != 1 {
		t.Fatalf("negative parallelism resolved to %d, want 1", got)
	}
	if got := (Options{Parallelism: 7}).procs(); got != 7 {
		t.Fatalf("explicit parallelism resolved to %d, want 7", got)
	}
}
