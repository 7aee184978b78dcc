package coarsen

import (
	"cmp"
	"context"
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/lp"
	"repro/internal/partition"
)

// requireHierarchiesEqual asserts two hierarchies are bitwise identical:
// depth, level-graph structure (order, liveness, vertex weights,
// adjacency order and edge weights), matchings and coarse assignments.
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

// hierarchyHash is an FNV-64a digest of everything a V-cycle produces:
// every level's coarse graph (order, liveness, vertex weight, adjacency
// order and edge weights), its match and f2c maps, its coarse assignment,
// and the final fine assignment a.
func hierarchyHash(h *Hierarchy, a *partition.Assignment) uint64 {
	d := fnv.New64a()
	var buf [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		d.Write(buf[:])
	}
	put(uint64(h.Depth()))
	for _, lv := range h.levels {
		gc := lv.gc
		put(uint64(gc.Order()))
		for v := 0; v < gc.Order(); v++ {
			vv := graph.Vertex(v)
			put(uint64(int64(lv.ca.Part[v])))
			if !gc.Alive(vv) {
				put(math.MaxUint64)
				continue
			}
			put(math.Float64bits(gc.VertexWeight(vv)))
			ws := gc.EdgeWeights(vv)
			put(uint64(len(ws)))
			for i, u := range gc.Neighbors(vv) {
				put(uint64(u))
				put(math.Float64bits(ws[i]))
			}
		}
		put(uint64(len(lv.f2c)))
		for v := range lv.f2c {
			put(uint64(int64(lv.match[v])))
			put(uint64(int64(lv.f2c[v])))
		}
	}
	put(uint64(len(a.Part)))
	for _, q := range a.Part {
		put(uint64(int64(q)))
	}
	return d.Sum64()
}

// vcycleHistory drives one full build + edit + drift + build + solve +
// uncoarsen history and returns the hierarchy and final assignment.
func vcycleHistory(t *testing.T) (*Hierarchy, *partition.Assignment) {
	t.Helper()
	g, a := striped(48, 48, 4)
	h := NewHierarchy(g, HierarchyOptions{CoarsenTo: 16})
	ctx := context.Background()
	if _, err := h.Update(ctx, a); err != nil {
		t.Fatal(err)
	}
	// Growth edits the second build must cover.
	rng := rand.New(rand.NewSource(77))
	prev := g.Vertices()
	for k := 0; k < 40; k++ {
		v := g.AddVertex(1)
		u := prev[rng.Intn(len(prev))]
		_ = g.AddEdge(v, u, 1)
		a.Part = append(a.Part, a.Part[u])
		prev = append(prev, v)
	}
	// Partition drift splits groups the first build matched.
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

// settledHistory builds a hierarchy over a striped 96×96 grid, runs one
// V-cycle, then three more Update + Uncoarsen rounds over the drift the
// V-cycle itself introduced.
func settledHistory(t *testing.T) (*Hierarchy, *partition.Assignment) {
	t.Helper()
	g, a := striped(96, 96, 4)
	h := NewHierarchy(g, HierarchyOptions{CoarsenTo: 16})
	ctx := context.Background()
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
	return h, a
}

// gridHistory is the cold V-cycle at scale: a 316×316 grid flood-filled
// into one of 8 partitions (the degenerate first call, so the coarsest
// solve is spectral and nearly every vertex is projected), uncoarsened
// with the default thresholds, then built once more over the result.
func gridHistory(t *testing.T) (*Hierarchy, *partition.Assignment) {
	t.Helper()
	g := graph.Grid(316, 316)
	a := partition.New(g.Order(), 8)
	for v := range a.Part {
		a.Part[v] = 0
	}
	h := NewHierarchy(g, HierarchyOptions{})
	ctx := context.Background()
	if _, err := h.Update(ctx, a); err != nil {
		t.Fatal(err)
	}
	if _, _, err := h.SolveCoarsest(ctx, lp.Network{}); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Uncoarsen(ctx, a); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Update(ctx, a); err != nil {
		t.Fatal(err)
	}
	return h, a
}

// weightedHistory is the one locked history on non-unit weights: a 40×40
// grid with seeded integer edge weights in [1, 100], striped into 4,
// built, grown, drifted and built again. The heavy-edge order then rests
// on the weights rather than on edgeHash's tie-break, and coarse arcs sum
// three or more distinct weights.
func weightedHistory(t *testing.T) (*Hierarchy, *partition.Assignment) {
	t.Helper()
	const rows, cols = 40, 40
	rng := rand.New(rand.NewSource(2718))
	g := graph.NewWithVertices(rows * cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			v := graph.Vertex(r*cols + c)
			if c+1 < cols {
				g.AddEdgeUnchecked(v, v+1, float64(1+rng.Intn(100)))
			}
			if r+1 < rows {
				g.AddEdgeUnchecked(v, v+cols, float64(1+rng.Intn(100)))
			}
		}
	}
	a := partition.New(g.Order(), 4)
	for v := range a.Part {
		a.Part[v] = int32((v % cols) / (cols / 4))
	}
	h := NewHierarchy(g, HierarchyOptions{CoarsenTo: 16})
	ctx := context.Background()
	if _, err := h.Update(ctx, a); err != nil {
		t.Fatal(err)
	}
	prev := g.Vertices()
	for k := 0; k < 40; k++ {
		v := g.AddVertex(1)
		u := prev[rng.Intn(len(prev))]
		_ = g.AddEdge(v, u, float64(1+rng.Intn(100)))
		a.Part = append(a.Part, a.Part[u])
		prev = append(prev, v)
	}
	for k := 0; k < 60; k++ {
		v := graph.Vertex(rng.Intn(g.Order()))
		a.Part[v] = int32((int(a.Part[v]) + 1) % a.P)
	}
	if _, err := h.Update(ctx, a); err != nil {
		t.Fatal(err)
	}
	if err := h.Check(a); err != nil {
		t.Fatal(err)
	}
	return h, a
}

func TestHierarchyLocked(t *testing.T) {
	// The V-cycle's output is pinned across changes to the code: any
	// change to matching (edgeHash, edge order, the two-hop pairing),
	// aggregation order, projection or the level refiner moves at least
	// one of the digests below. striped96's was recorded while the
	// hierarchy's sweeps still sharded over a worker group; vcycle, hub
	// and grid316 are what the code before per-call hierarchies gave when
	// each Update after the first ran on a fresh hierarchy, the build
	// every Update now is; weighted's was recorded when its history moved
	// from fractional to integer edge weights, with the code unchanged.
	for _, tc := range []struct {
		name    string
		history func(*testing.T) (*Hierarchy, *partition.Assignment)
		want    uint64
	}{
		{"vcycle", vcycleHistory, 0xec6db05dcf467d9a},
		{"striped96", settledHistory, 0x1f7866e7429539ec},
		{"hub", hubHistory, 0x1c73f9434a1ac82b},
		{"grid316", gridHistory, 0xaadb4a7fa30a7809},
		{"weighted", weightedHistory, 0xac84601e5b700b78},
	} {
		h, a := tc.history(t)
		if got := hierarchyHash(h, a); got != tc.want {
			t.Errorf("%s: hierarchy digest %#x, want %#x", tc.name, got, tc.want)
		}
	}
}

func TestHierarchyColdUpdateAllocs(t *testing.T) {
	// A cold Update lays each level out in one slab: a bounded number of
	// allocations per level, whatever the level's size.
	g := graph.Grid(128, 128)
	a := partition.New(g.Order(), 8)
	for v := range a.Part {
		a.Part[v] = 0
	}
	ctx := context.Background()
	depth := 0
	allocs := testing.AllocsPerRun(5, func() {
		h := NewHierarchy(g, HierarchyOptions{})
		if _, err := h.Update(ctx, a); err != nil {
			t.Fatal(err)
		}
		depth = h.Depth()
	})
	if depth == 0 || allocs > float64(64*depth) {
		t.Fatalf("cold Update: %.0f allocations over %d levels, want at most 64 per level", allocs, depth)
	}
	t.Logf("cold Update: %.0f allocations over %d levels", allocs, depth)
}

// greedyMatching is the matcher's reference: every same-partition edge
// between two vertices of free, sorted by the edge order (weight
// descending, then edgeHash ascending), matched when both its ends are
// still unmatched. It returns each vertex's partner, itself when none.
func greedyMatching(g *graph.Graph, part []int32, free []graph.Vertex) []graph.Vertex {
	type edge struct {
		u, v graph.Vertex
		w    float64
		h    uint64
	}
	isFree := make([]bool, g.Order())
	for _, v := range free {
		isFree[v] = true
	}
	var edges []edge
	for _, u := range free {
		ws := g.EdgeWeights(u)
		for i, v := range g.Neighbors(u) {
			if u < v && isFree[v] && part[u] == part[v] {
				edges = append(edges, edge{u, v, ws[i], edgeHash(u, v)})
			}
		}
	}
	slices.SortFunc(edges, func(a, b edge) int {
		return cmp.Or(cmp.Compare(b.w, a.w), cmp.Compare(a.h, b.h))
	})
	mate := make([]graph.Vertex, g.Order())
	for v := range mate {
		mate[v] = graph.Vertex(v)
	}
	for _, e := range edges {
		if mate[e.u] == e.u && mate[e.v] == e.v {
			mate[e.u], mate[e.v] = e.v, e.u
		}
	}
	return mate
}

// FuzzMatcherIsGreedy checks the suitor pass, before the two-hop pass,
// against greedyMatching on random graphs — unit, small-integer or
// wide-range integer edge weights (zero included), deleted vertices, P ≤ 4 and a random free
// subset of the live vertices — with one matcher reused across several
// graphs of different orders, as the hierarchy reuses it level to level.
func FuzzMatcherIsGreedy(f *testing.F) {
	f.Add(int64(1), uint8(40), uint8(0))
	f.Add(int64(7), uint8(200), uint8(1))
	f.Add(int64(42), uint8(90), uint8(2))
	f.Add(int64(5), uint8(3), uint8(5))
	f.Fuzz(func(t *testing.T, seed int64, order, kind uint8) {
		rng := rand.New(rand.NewSource(seed))
		var m matcher
		for round := 0; round < 4; round++ {
			n := 2 + (int(order)+round*37)%256
			g := graph.NewWithVertices(n)
			for k := n * (1 + rng.Intn(6)) / 2; k > 0; k-- {
				u, v := graph.Vertex(rng.Intn(n)), graph.Vertex(rng.Intn(n))
				if u == v || g.HasEdge(u, v) {
					continue
				}
				w := 1.0
				switch (int(kind) + round) % 3 {
				case 1:
					w = float64(1 + rng.Intn(3))
				case 2:
					w = float64(rng.Intn(1000))
				}
				g.AddEdgeUnchecked(u, v, w)
			}
			for k := rng.Intn(n/8 + 1); k > 0; k-- {
				_ = g.RemoveVertex(graph.Vertex(rng.Intn(n)))
			}
			p := 1 + rng.Intn(4)
			part := make([]int32, n)
			for v := range part {
				part[v] = int32(rng.Intn(p))
			}
			keep := rng.Float64()
			var free []graph.Vertex
			for _, v := range g.Vertices() {
				if rng.Float64() < 0.25+keep {
					free = append(free, v)
				}
			}
			want := greedyMatching(g, part, free)
			m.suitor(g, part, free)
			for _, v := range free {
				if m.mate[v] != want[v] {
					t.Fatalf("round %d: vertex %d matched to %d, greedy matches it to %d", round, v, m.mate[v], want[v])
				}
				if m.freeFlag[v] != (want[v] == v) {
					t.Fatalf("round %d: vertex %d left free %v, greedy leaves it free %v", round, v, m.freeFlag[v], want[v] == v)
				}
			}
			m.twoHop(g, part, free)
			for _, v := range free {
				m.freeFlag[v] = false
			}
		}
	})
}
