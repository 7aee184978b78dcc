package layering

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/cancel"
	"repro/internal/graph"
	"repro/internal/partition"
)

// stripes partitions a rows×cols grid into vertical stripes of equal width.
func stripes(rows, cols, p int) (*graph.Graph, *partition.Assignment) {
	g := graph.Grid(rows, cols)
	a := partition.New(g.Order(), p)
	w := cols / p
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			q := c / w
			if q >= p {
				q = p - 1
			}
			a.Part[r*cols+c] = int32(q)
		}
	}
	return g, a
}

func TestLayerStripes(t *testing.T) {
	g, a := stripes(4, 12, 3)
	r, err := Layer(g, a)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Validate(g, a); err != nil {
		t.Fatal(err)
	}
	// Middle stripe (cols 4..7) touches both sides: cols 4-5 should label
	// toward 0, cols 6-7 toward 2, with levels 0 then 1 from each border.
	for rr := 0; rr < 4; rr++ {
		for c := 4; c < 8; c++ {
			v := rr*12 + c
			wantLabel := int32(0)
			if c >= 6 {
				wantLabel = 2
			}
			if r.Label[v] != wantLabel {
				t.Fatalf("vertex (%d,%d): label %d, want %d", rr, c, r.Label[v], wantLabel)
			}
			wantLevel := int32(0)
			if c == 5 || c == 6 {
				wantLevel = 1
			}
			if c == 4 || c == 7 {
				wantLevel = 0
			}
			if r.Level[v] != wantLevel {
				t.Fatalf("vertex (%d,%d): level %d, want %d", rr, c, r.Level[v], wantLevel)
			}
		}
	}
	// δ(1,0) counts stripe-1 vertices labeled 0: columns 4-5, 8 vertices.
	if r.Delta[1][0] != 8 || r.Delta[1][2] != 8 {
		t.Fatalf("delta[1] = %v, want 8 toward each side", r.Delta[1])
	}
	// Outer stripes label entirely toward the middle.
	if r.Delta[0][1] != 16 || r.Delta[2][1] != 16 {
		t.Fatalf("delta[0][1]=%d delta[2][1]=%d, want 16/16", r.Delta[0][1], r.Delta[2][1])
	}
}

func TestPoolsBoundaryFirst(t *testing.T) {
	g, a := stripes(4, 12, 3)
	r, err := Layer(g, a)
	if err != nil {
		t.Fatal(err)
	}
	pool := r.Pool(0, 1)
	if len(pool) != 16 {
		t.Fatalf("pool(0,1) size %d, want 16", len(pool))
	}
	for i := 1; i < len(pool); i++ {
		if r.Level[pool[i]] < r.Level[pool[i-1]] {
			t.Fatal("pool not in level order")
		}
	}
	// First pool entries are on the boundary (level 0, column 3).
	if r.Level[pool[0]] != 0 {
		t.Fatal("pool must start at the boundary")
	}
}

func TestLayerIsolatedPartition(t *testing.T) {
	// A graph with an isolated partition (no cross edges): its vertices
	// stay unlabeled and δ is all zero for it.
	g := graph.NewWithVertices(6)
	_ = g.AddEdge(0, 1, 1)
	_ = g.AddEdge(1, 2, 1)
	_ = g.AddEdge(3, 4, 1)
	_ = g.AddEdge(4, 5, 1)
	a := partition.New(6, 2)
	a.Part = []int32{0, 0, 0, 1, 1, 1}
	r, err := Layer(g, a)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 6; v++ {
		if r.Label[v] != -1 {
			t.Fatalf("vertex %d labeled %d in isolated partitions", v, r.Label[v])
		}
	}
	if r.Delta[0][1] != 0 || r.Delta[1][0] != 0 {
		t.Fatal("delta should be zero between disconnected partitions")
	}
	if err := r.Validate(g, a); err != nil {
		t.Fatal(err)
	}
}

func TestLayerUnassignedRejected(t *testing.T) {
	g := graph.Path(3)
	a := partition.New(3, 2)
	a.Part = []int32{0, partition.Unassigned, 1}
	if _, err := Layer(g, a); err == nil {
		t.Fatal("unassigned vertices must be rejected")
	}
}

func TestNeighborsList(t *testing.T) {
	g, a := stripes(4, 12, 3)
	r, err := Layer(g, a)
	if err != nil {
		t.Fatal(err)
	}
	n0 := r.Neighbors(0)
	if len(n0) != 1 || n0[0] != 1 {
		t.Fatalf("neighbors(0) = %v, want [1]", n0)
	}
	n1 := r.Neighbors(1)
	if len(n1) != 2 {
		t.Fatalf("neighbors(1) = %v, want [0 2]", n1)
	}
}

func TestTieBreakDeterministic(t *testing.T) {
	// Vertex 0 in partition 2 touches partitions 0 and 1 equally; the tie
	// must break toward the smaller id (0).
	g := graph.NewWithVertices(3)
	_ = g.AddEdge(0, 1, 1)
	_ = g.AddEdge(0, 2, 1)
	a := partition.New(3, 3)
	a.Part = []int32{2, 0, 1}
	r, err := Layer(g, a)
	if err != nil {
		t.Fatal(err)
	}
	if r.Label[0] != 0 {
		t.Fatalf("tie should break to partition 0, got %d", r.Label[0])
	}
}

func TestMajorityLabelWins(t *testing.T) {
	// Vertex 0 (partition 2) touches partition 1 twice and partition 0 once.
	g := graph.NewWithVertices(4)
	_ = g.AddEdge(0, 1, 1)
	_ = g.AddEdge(0, 2, 1)
	_ = g.AddEdge(0, 3, 1)
	a := partition.New(4, 3)
	a.Part = []int32{2, 0, 1, 1}
	r, err := Layer(g, a)
	if err != nil {
		t.Fatal(err)
	}
	if r.Label[0] != 1 {
		t.Fatalf("majority label should win: got %d, want 1", r.Label[0])
	}
}

func TestPropertyLayeringInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(40)
		m := n + rng.Intn(2*n)
		g, err := graph.RandomGNM(n, min(m, n*(n-1)/2), rng)
		if err != nil {
			return false
		}
		p := 2 + rng.Intn(4)
		a := partition.New(g.Order(), p)
		for v := 0; v < g.Order(); v++ {
			a.Part[v] = int32(rng.Intn(p))
		}
		r, err := Layer(g, a)
		if err != nil {
			return false
		}
		if err := r.Validate(g, a); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		// δ row sums never exceed partition sizes.
		sizes := a.Sizes(g)
		for i := 0; i < p; i++ {
			sum := 0
			for j := 0; j < p; j++ {
				sum += r.Delta[i][j]
			}
			if sum > sizes[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TestLayerCanceled: the BFS kernel polls its context per level; a
// pre-canceled context aborts with the typed sentinel, and the Scratch
// stays reusable for the next (live) call.
func TestLayerCanceled(t *testing.T) {
	g, a := stripes(8, 24, 3)
	csr := g.ToCSR()
	var s Scratch
	ctx, cancelFn := context.WithCancel(context.Background())
	cancelFn()
	if _, err := s.LayerSeeded(ctx, csr, a, g.Vertices()); !errors.Is(err, cancel.ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	// The scratch must still produce a correct layering afterwards.
	res, err := s.LayerSeeded(context.Background(), csr, a, g.Vertices())
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Validate(g, a); err != nil {
		t.Fatal(err)
	}
	want, err := Layer(g, a)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Label, want.Label) || !reflect.DeepEqual(res.Delta, want.Delta) {
		t.Fatal("post-abort layering diverges from fresh layering")
	}
}

// pollCtx is a context whose Err turns non-nil after a fixed number of
// polls — a cancellation that lands between two chosen BFS levels.
type pollCtx struct {
	context.Context
	left int
}

func (c *pollCtx) Err() error {
	if c.left == 0 {
		return context.Canceled
	}
	c.left--
	return nil
}

// TestLayerCanceledMidBFS aborts the kernel after k completed levels —
// labels half-written, claim stamps half-taken, worker buffers full —
// and requires the next call on the same Scratch to equal a fresh
// layering on every field.
func TestLayerCanceledMidBFS(t *testing.T) {
	g, a := stripes(40, 60, 3)
	csr := g.ToCSR()
	seeds := g.Vertices()
	want, err := Layer(g, a)
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, 4} {
		s := Scratch{Procs: procs}
		for k := 0; k <= 11; k++ {
			ctx := &pollCtx{Context: context.Background(), left: k}
			if _, err := s.LayerSeeded(ctx, csr, a, seeds); !errors.Is(err, cancel.ErrCanceled) {
				t.Fatalf("procs %d, cancel after %d polls: want ErrCanceled, got %v", procs, k, err)
			}
			got, err := s.LayerSeeded(context.Background(), csr, a, seeds)
			if err != nil {
				t.Fatal(err)
			}
			requireSameResult(t, fmt.Sprintf("procs %d, after abort at poll %d", procs, k), got, want, a.P)
		}
	}
}

// refLayering is the naive reference's output: labels and levels of the
// labeled vertices, and the ordered pool of each (partition, label) pair.
type refLayering struct {
	Label, Level map[graph.Vertex]int32
	Pools        map[[2]int32][]graph.Vertex
}

// figure3 is the paper's Figure 3 written as a specification over the
// adjacency-list graph — no snapshot, no scratch, nothing shared with
// the kernel. Level 0: a vertex with foreign neighbors takes the foreign
// partition it touches most. Level ℓ+1: an unlabeled vertex takes the
// label most common among its same-partition level-ℓ neighbors. Ties go
// to the smaller partition id. Pools are ordered by level ascending,
// then edges into the label partition descending, then id ascending.
func figure3(g *graph.Graph, a *partition.Assignment) refLayering {
	r := refLayering{
		Label: map[graph.Vertex]int32{},
		Level: map[graph.Vertex]int32{},
		Pools: map[[2]int32][]graph.Vertex{},
	}
	mostCommon := func(counts map[int32]int) int32 {
		best := int32(-1)
		for k, c := range counts {
			if best < 0 || c > counts[best] || (c == counts[best] && k < best) {
				best = k
			}
		}
		return best
	}
	for l := int32(0); ; l++ {
		found := map[graph.Vertex]int32{}
		for _, v := range g.Vertices() {
			if _, done := r.Label[v]; done {
				continue
			}
			counts := map[int32]int{}
			for _, u := range g.Neighbors(v) {
				if l == 0 && a.Part[u] != a.Part[v] {
					counts[a.Part[u]]++
				}
				if lu, ok := r.Level[u]; l > 0 && a.Part[u] == a.Part[v] && ok && lu == l-1 {
					counts[r.Label[u]]++
				}
			}
			if len(counts) > 0 {
				found[v] = mostCommon(counts)
			}
		}
		if len(found) == 0 {
			break
		}
		for v, lab := range found {
			r.Label[v], r.Level[v] = lab, l
		}
	}
	att := func(v graph.Vertex) int {
		n := 0
		for _, u := range g.Neighbors(v) {
			if a.Part[u] == r.Label[v] {
				n++
			}
		}
		return n
	}
	for v, lab := range r.Label {
		k := [2]int32{a.Part[v], lab}
		r.Pools[k] = append(r.Pools[k], v)
	}
	for _, pool := range r.Pools {
		sort.Slice(pool, func(i, j int) bool {
			x, y := pool[i], pool[j]
			if r.Level[x] != r.Level[y] {
				return r.Level[x] < r.Level[y]
			}
			if att(x) != att(y) {
				return att(x) > att(y)
			}
			return x < y
		})
	}
	return r
}

// requireMatchesFigure3 asserts Label, Level, Delta and every Pool of a
// kernel result against the reference.
func requireMatchesFigure3(t *testing.T, tag string, got *Result, want refLayering, n, p int) {
	t.Helper()
	for v := 0; v < n; v++ {
		lab, lev := int32(-1), int32(-1)
		if l, ok := want.Label[graph.Vertex(v)]; ok {
			lab, lev = l, want.Level[graph.Vertex(v)]
		}
		if got.Label[v] != lab || got.Level[v] != lev {
			t.Fatalf("%s: vertex %d has (label, level) = (%d, %d), reference (%d, %d)", tag, v, got.Label[v], got.Level[v], lab, lev)
		}
	}
	for i := int32(0); i < int32(p); i++ {
		for j := int32(0); j < int32(p); j++ {
			pool := want.Pools[[2]int32{i, j}]
			if got.Delta[i][j] != len(pool) {
				t.Fatalf("%s: δ(%d,%d) = %d, reference %d", tag, i, j, got.Delta[i][j], len(pool))
			}
			if gp := got.Pool(i, j); len(pool) > 0 && !reflect.DeepEqual(gp, pool) {
				t.Fatalf("%s: pool(%d,%d) = %v, reference %v", tag, i, j, gp, pool)
			}
		}
	}
}

// TestLayerMatchesFigure3Reference checks the kernel against the naive
// reference on random G(n,m) graphs with deleted vertices and scattered
// assignments, at several worker counts and for every shape of seed
// list the contract allows: the exact boundary, every vertex (dead
// slots included), and a shuffled boundary with duplicates.
func TestLayerMatchesFigure3Reference(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(300)
		g, err := graph.RandomGNM(n, min(n/2+rng.Intn(3*n), n*(n-1)/2), rng)
		if err != nil {
			t.Fatal(err)
		}
		for i := rng.Intn(n / 5); i > 0; i-- {
			if v := graph.Vertex(rng.Intn(n)); g.Alive(v) {
				if err := g.RemoveVertex(v); err != nil {
					t.Fatal(err)
				}
			}
		}
		p := 2 + rng.Intn(7)
		a := partition.New(n, p)
		for v := 0; v < n; v++ {
			if g.Alive(graph.Vertex(v)) {
				// Contiguous blocks with one vertex in five scattered.
				a.Part[v] = int32(v * p / n)
				if rng.Intn(5) == 0 {
					a.Part[v] = int32(rng.Intn(p))
				}
			}
		}
		want := figure3(g, a)

		var boundary, all, dup []graph.Vertex
		for v := 0; v < n; v++ {
			all = append(all, graph.Vertex(v))
			for _, u := range g.Neighbors(graph.Vertex(v)) {
				if a.Part[u] != a.Part[v] {
					boundary = append(boundary, graph.Vertex(v))
					break
				}
			}
		}
		dup = append(append(dup, boundary...), boundary...)
		rng.Shuffle(len(dup), func(i, j int) { dup[i], dup[j] = dup[j], dup[i] })

		c := g.ToCSR()
		for _, procs := range []int{1, 3, runtime.GOMAXPROCS(0)} {
			s := Scratch{Procs: procs}
			for name, seeds := range map[string][]graph.Vertex{"boundary": boundary, "all": all, "dup": dup} {
				got, err := s.LayerSeeded(context.Background(), c, a, seeds)
				if err != nil {
					t.Fatal(err)
				}
				requireMatchesFigure3(t, fmt.Sprintf("seed %d, procs %d, %s seeds", seed, procs, name), got, want, n, p)
			}
		}
	}
}
