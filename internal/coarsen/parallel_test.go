package coarsen

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/lp"
	"repro/internal/partition"
)

// requireHierarchiesEqual asserts two hierarchies are bitwise identical:
// depth, level-graph structure (order, liveness, vertex weights,
// adjacency order and edge weights) and coarse assignments.
func requireHierarchiesEqual(t *testing.T, h1, h2 *Hierarchy) {
	t.Helper()
	if h1.Depth() != h2.Depth() {
		t.Fatalf("depth %d != %d", h1.Depth(), h2.Depth())
	}
	for l := 0; l < h1.Depth(); l++ {
		g1, g2 := h1.levels[l].gc, h2.levels[l].gc
		if g1.Order() != g2.Order() {
			t.Fatalf("level %d order %d != %d", l, g1.Order(), g2.Order())
		}
		for v := 0; v < g1.Order(); v++ {
			vv := graph.Vertex(v)
			if g1.Alive(vv) != g2.Alive(vv) {
				t.Fatalf("level %d vertex %d liveness differs", l, v)
			}
			if !g1.Alive(vv) {
				continue
			}
			if g1.VertexWeight(vv) != g2.VertexWeight(vv) {
				t.Fatalf("level %d vertex %d weight differs", l, v)
			}
			n1, n2 := g1.Neighbors(vv), g2.Neighbors(vv)
			w1, w2 := g1.EdgeWeights(vv), g2.EdgeWeights(vv)
			if len(n1) != len(n2) {
				t.Fatalf("level %d vertex %d degree %d != %d", l, v, len(n1), len(n2))
			}
			for i := range n1 {
				if n1[i] != n2[i] || w1[i] != w2[i] {
					t.Fatalf("level %d vertex %d adjacency diverges at %d", l, v, i)
				}
			}
			if h1.levels[l].ca.Part[v] != h2.levels[l].ca.Part[v] {
				t.Fatalf("level %d coarse assignment differs at %d", l, v)
			}
			if h1.levels[l].match[v] != h2.levels[l].match[v] {
				t.Fatalf("level %d match differs at %d", l, v)
			}
		}
	}
}

func TestMatchParEquivalence(t *testing.T) {
	// The sharded matcher's outcome must be a pure function of (graph,
	// partition, free set): a hierarchy built at every worker count
	// reproduces the procs=1 one — every level's matching, coarse graph
	// and coarse assignment — slot for slot.
	graphs := []func() (*graph.Graph, *partition.Assignment){
		func() (*graph.Graph, *partition.Assignment) { return striped(16, 32, 4) },
		func() (*graph.Graph, *partition.Assignment) { return striped(96, 96, 4) },
		func() (*graph.Graph, *partition.Assignment) {
			// Preferential-attachment-ish: hubs exercise the arc-balanced
			// shards and the two-hop pass.
			g := graph.New(600)
			a := partition.New(600, 3)
			rng := rand.New(rand.NewSource(42))
			var vs []graph.Vertex
			for i := 0; i < 600; i++ {
				v := g.AddVertex(1)
				a.Part[v] = int32(i % 3)
				for k := 0; k < 2 && len(vs) > 0; k++ {
					u := vs[rng.Intn(len(vs))]
					_ = g.AddEdge(v, u, 1+float64(rng.Intn(3)))
				}
				vs = append(vs, v)
			}
			return g, a
		},
	}
	for _, mk := range graphs {
		g, a := mk()
		want := buildHierarchy(t, g, a, HierarchyOptions{CoarsenTo: 16, Procs: 1})
		for _, procs := range []int{2, 3, 8} {
			requireHierarchiesEqual(t, want, buildHierarchy(t, g, a, HierarchyOptions{CoarsenTo: 16, Procs: procs}))
		}
	}
}

// vcycleHistory drives one full build + edit + drift + repair + solve +
// uncoarsen history at the given worker count and returns the hierarchy
// and final assignment.
func vcycleHistory(t *testing.T, procs int) (*Hierarchy, *partition.Assignment) {
	t.Helper()
	g, a := striped(48, 48, 4)
	h := NewHierarchy(g, HierarchyOptions{CoarsenTo: 16, Procs: procs})
	ctx := context.Background()
	if _, err := h.Update(ctx, a); err != nil {
		t.Fatal(err)
	}
	// Growth edits touch the journal-repair path.
	rng := rand.New(rand.NewSource(77))
	prev := g.Vertices()
	for k := 0; k < 40; k++ {
		v := g.AddVertex(1)
		u := prev[rng.Intn(len(prev))]
		_ = g.AddEdge(v, u, 1)
		a.Part = append(a.Part, a.Part[u])
		prev = append(prev, v)
	}
	// Partition drift forces purity dissolves.
	for k := 0; k < 60; k++ {
		v := graph.Vertex(rng.Intn(g.Order()))
		if g.Alive(v) {
			a.Part[v] = int32((int(a.Part[v]) + 1) % a.P)
		}
	}
	if _, err := h.Update(ctx, a); err != nil {
		t.Fatal(err)
	}
	if _, _, err := h.SolveCoarsest(ctx, lp.Network{}); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Uncoarsen(ctx, a); err != nil {
		t.Fatal(err)
	}
	return h, a
}

func TestHierarchyParallelEquivalence(t *testing.T) {
	// The whole V-cycle — coarsen, repair, refine, project — must be
	// bit-identical at every worker count, with procs=1 the sequential
	// reference.
	ref, refA := vcycleHistory(t, 1)
	for _, procs := range []int{2, 3, 8} {
		h, a := vcycleHistory(t, procs)
		requireHierarchiesEqual(t, ref, h)
		for v := range refA.Part {
			if refA.Part[v] != a.Part[v] {
				t.Fatalf("procs %d: assignment differs at %d: %d != %d", procs, v, a.Part[v], refA.Part[v])
			}
		}
	}
}

func TestHierarchyWarmUpdateAllocs(t *testing.T) {
	// A settled warm Update + Uncoarsen (no edits, no drift) must stay on
	// the arenas at every worker count: 0 allocs/op, matching the flat
	// path's locks.
	for _, procs := range []int{1, 4} {
		g, a := striped(96, 96, 4)
		h := NewHierarchy(g, HierarchyOptions{CoarsenTo: 16, Procs: procs})
		ctx := context.Background()
		// Settle: build, solve, project, then repair the drift the V-cycle
		// itself introduced until a warm no-op Update remains.
		if _, err := h.Update(ctx, a); err != nil {
			t.Fatal(err)
		}
		if _, _, err := h.SolveCoarsest(ctx, lp.Network{}); err != nil {
			t.Fatal(err)
		}
		if _, err := h.Uncoarsen(ctx, a); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if _, err := h.Update(ctx, a); err != nil {
				t.Fatal(err)
			}
			if _, err := h.Uncoarsen(ctx, a); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := h.Update(ctx, a); err != nil {
				t.Fatal(err)
			}
			if _, err := h.Uncoarsen(ctx, a); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("procs %d: settled warm Update+Uncoarsen allocates %.1f/op, want 0", procs, allocs)
		}
	}
}
