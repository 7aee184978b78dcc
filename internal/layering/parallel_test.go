package layering

import (
	"context"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/graph"
	"repro/internal/partition"
)

// randomPartitioned builds a connected random geometric graph with a
// striped-then-shuffled assignment — irregular boundaries in every
// partition without needing the spectral package.
func randomPartitioned(t testing.TB, n, p int, seed int64) (*graph.Graph, *partition.Assignment) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g, _ := graph.RandomGeometric(n, 0.08, rng)
	graph.EnsureConnected(g)
	a := partition.New(g.Order(), p)
	for v := 0; v < g.Order(); v++ {
		a.Part[v] = int32(v * p / g.Order())
	}
	// Scatter a few vertices to roughen the boundaries.
	for i := 0; i < n/10; i++ {
		a.Part[rng.Intn(g.Order())] = int32(rng.Intn(p))
	}
	return g, a
}

// requireSameResult asserts two layerings are bit-identical across
// every exported dimension, pools included.
func requireSameResult(t *testing.T, tag string, got, want *Result, p int) {
	t.Helper()
	if !reflect.DeepEqual(got.Label, want.Label) {
		t.Fatalf("%s: Label diverges", tag)
	}
	if !reflect.DeepEqual(got.Level, want.Level) {
		t.Fatalf("%s: Level diverges", tag)
	}
	if !reflect.DeepEqual(got.Delta, want.Delta) {
		t.Fatalf("%s: Delta diverges", tag)
	}
	for i := 0; i < p; i++ {
		for j := 0; j < p; j++ {
			gp, wp := got.Pool(int32(i), int32(j)), want.Pool(int32(i), int32(j))
			if len(gp) != len(wp) {
				t.Fatalf("%s: pool(%d,%d) length %d, want %d", tag, i, j, len(gp), len(wp))
			}
			for k := range gp {
				if gp[k] != wp[k] {
					t.Fatalf("%s: pool(%d,%d)[%d] = %d, want %d", tag, i, j, k, gp[k], wp[k])
				}
			}
		}
	}
}

// TestParallelLayerEquivalence: the kernel must be bit-identical for
// every worker count, seeded with every vertex or with the boundary,
// including duplicate seed lists.
func TestParallelLayerEquivalence(t *testing.T) {
	for _, cfg := range []struct {
		n, p int
		seed int64
	}{
		{60, 3, 1}, {200, 5, 2}, {500, 8, 3}, {700, 32, 4},
	} {
		g, a := randomPartitioned(t, cfg.n, cfg.p, cfg.seed)
		c := g.ToCSR()
		var seq Scratch
		want, err := seq.LayerSeeded(context.Background(), c, a, g.Vertices())
		if err != nil {
			t.Fatal(err)
		}
		// Boundary seeds (superset with duplicates) for the seeded runs.
		var seeds []graph.Vertex
		for v := 0; v < c.Order(); v++ {
			if !c.Live[v] {
				continue
			}
			for _, u := range c.Row(graph.Vertex(v)) {
				if a.Part[u] != a.Part[v] {
					seeds = append(seeds, graph.Vertex(v), graph.Vertex(v))
					break
				}
			}
		}
		for _, procs := range []int{1, 2, 3, 7, 16, runtime.GOMAXPROCS(0)} {
			par := Scratch{Procs: procs}
			got, err := par.LayerSeeded(context.Background(), c, a, g.Vertices())
			if err != nil {
				t.Fatal(err)
			}
			requireSameResult(t, "full scan", got, want, cfg.p)
			got, err = par.LayerSeeded(context.Background(), c, a, seeds)
			if err != nil {
				t.Fatal(err)
			}
			requireSameResult(t, "seeded", got, want, cfg.p)
			if err := got.Validate(g, a); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestParallelLayerScratchReuse drives one four-worker scratch across
// growing graphs and repeated calls — arena reuse must never leak state
// between calls.
func TestParallelLayerScratchReuse(t *testing.T) {
	s := Scratch{Procs: 4}
	for _, cfg := range []struct {
		n, p int
		seed int64
	}{
		{100, 4, 5}, {400, 6, 6}, {100, 3, 7}, {400, 6, 6},
	} {
		g, a := randomPartitioned(t, cfg.n, cfg.p, cfg.seed)
		c := g.ToCSR()
		got, err := s.LayerSeeded(context.Background(), c, a, g.Vertices())
		if err != nil {
			t.Fatal(err)
		}
		var seq Scratch
		want, err := seq.LayerSeeded(context.Background(), c, a, g.Vertices())
		if err != nil {
			t.Fatal(err)
		}
		requireSameResult(t, "reuse", got, want, cfg.p)
	}
}
