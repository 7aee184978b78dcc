// Package spectral implements Recursive Spectral Bisection (RSB), the
// from-scratch partitioner the paper uses both to produce the initial
// partition and as the quality/time baseline (its "SB" rows).
//
// The Fiedler vector — the eigenvector for the second-smallest eigenvalue
// of the graph Laplacian L = D − W — is computed with Lanczos iteration
// (full reorthogonalization) after deflating the trivial constant null
// vector, exactly the Pothen–Simon–Liou construction the paper cites.
//
// Ownership: unlike the engine's Stats and the coarsen Hierarchy —
// whose returned slices are arenas overwritten by the next call — every
// slice this package returns (Fiedler vector, Bisect sides, RSB labels)
// is freshly allocated and caller-owned; nothing aliases package or
// graph internals, and no call mutates its input graph.
package spectral

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/graph"
	"repro/internal/la"
)

// Options tunes the eigensolver.
type Options struct {
	// Seed drives the random start vector; fixed default keeps runs
	// reproducible.
	Seed int64
}

// MaxSteps is the Krylov dimension for a graph of n live vertices: the
// Lanczos basis of a Fiedler solve holds MaxSteps(n) vectors of length n.
func MaxSteps(n int) int {
	return min(max(2*isqrt(n), 30), 400)
}

func isqrt(n int) int {
	x := 0
	for (x+1)*(x+1) <= n {
		x++
	}
	return x
}

// Fiedler returns the Fiedler vector of the connected graph g, indexed by
// vertex slot (entries for dead slots are 0). The vector has unit norm and
// is orthogonal to the constant vector on live vertices. The returned
// slice is freshly allocated and caller-owned. ctx is polled once per
// Lanczos step.
func Fiedler(ctx context.Context, g *graph.Graph, opt Options) ([]float64, error) {
	csr := g.ToCSR()
	n := csr.Order()
	live := 0
	for _, ok := range csr.Live {
		if ok {
			live++
		}
	}
	if live < 2 {
		return nil, fmt.Errorf("spectral: fiedler needs at least 2 live vertices, have %d", live)
	}
	op := func(x, y []float64) { laplacianApply(csr, x, y) }
	ones := make([]float64, n)
	for v := 0; v < n; v++ {
		if csr.Live[v] {
			ones[v] = 1
		}
	}
	la.Normalize(ones)
	seed := opt.Seed
	if seed == 0 {
		seed = 12345
	}
	rng := rand.New(rand.NewSource(seed))
	start := make([]float64, n)
	for v := 0; v < n; v++ {
		if csr.Live[v] {
			start[v] = rng.Float64() - 0.5
		}
	}
	res, err := la.Lanczos(ctx, op, n, MaxSteps(live), start, [][]float64{ones}, rng)
	if err != nil {
		return nil, fmt.Errorf("spectral: %w", err)
	}
	_, f, err := res.SmallestRitzPair()
	if err != nil {
		return nil, fmt.Errorf("spectral: %w", err)
	}
	// Clean dead slots (they never mix in, but keep the contract explicit).
	for v := 0; v < n; v++ {
		if !csr.Live[v] {
			f[v] = 0
		}
	}
	return f, nil
}

// laplacianApply computes y = L·x restricted to live vertices (dead
// slots yield 0). Each row accumulates in adjacency order.
func laplacianApply(c *graph.CSR, x, y []float64) {
	for v := 0; v < c.Order(); v++ {
		if !c.Live[v] {
			y[v] = 0
			continue
		}
		row := c.Row(graph.Vertex(v))
		ws := c.RowWeights(graph.Vertex(v))
		var acc, deg float64
		for i, u := range row {
			w := ws[i]
			deg += w
			acc += w * x[u]
		}
		y[v] = deg*x[v] - acc
	}
}

// Bisect splits the live vertices of g into two groups whose vertex-weight
// totals approximate targetA : (total−targetA), by sorting on the Fiedler
// value and cutting at the weighted quantile. Ties in Fiedler value are
// broken by vertex id for determinism. Both returned sides are freshly
// allocated and caller-owned.
func Bisect(ctx context.Context, g *graph.Graph, targetA float64, opt Options) (a, b []graph.Vertex, err error) {
	vs := g.Vertices()
	if len(vs) < 2 {
		return nil, nil, fmt.Errorf("spectral: bisect needs at least 2 vertices")
	}
	if !g.Connected() {
		return bisectDisconnected(ctx, g, targetA, opt)
	}
	f, err := Fiedler(ctx, g, opt)
	if err != nil {
		return nil, nil, err
	}
	sort.Slice(vs, func(i, j int) bool {
		if f[vs[i]] != f[vs[j]] {
			return f[vs[i]] < f[vs[j]]
		}
		return vs[i] < vs[j]
	})
	var acc float64
	cut := 0
	for i, v := range vs {
		if acc >= targetA {
			break
		}
		acc += g.VertexWeight(v)
		cut = i + 1
	}
	if cut == 0 {
		cut = 1
	}
	if cut == len(vs) {
		cut = len(vs) - 1
	}
	return append([]graph.Vertex(nil), vs[:cut]...), append([]graph.Vertex(nil), vs[cut:]...), nil
}

// bisectDisconnected fills side a up to the target weight from whole
// components (largest first); the component that would overshoot the
// target is itself bisected spectrally to fill the remainder exactly, and
// everything after that goes to side b. This keeps both sides on target
// even when component weights are awkward.
func bisectDisconnected(ctx context.Context, g *graph.Graph, targetA float64, opt Options) (a, b []graph.Vertex, err error) {
	comp, nc := g.Components()
	weights := make([]float64, nc)
	members := make([][]graph.Vertex, nc)
	for _, v := range g.Vertices() {
		c := comp[v]
		weights[c] += g.VertexWeight(v)
		members[c] = append(members[c], v)
	}
	order := make([]int, nc)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		if weights[order[i]] != weights[order[j]] {
			return weights[order[i]] > weights[order[j]]
		}
		return order[i] < order[j]
	})
	var accA float64
	for _, c := range order {
		need := targetA - accA
		if need <= 1e-9 {
			b = append(b, members[c]...)
			continue
		}
		if weights[c] <= need+1e-9 {
			a = append(a, members[c]...)
			accA += weights[c]
			continue
		}
		// This component straddles the remaining target: split it.
		sub, _, newToOld := g.InducedSubgraph(members[c])
		if sub.NumVertices() < 2 {
			b = append(b, members[c]...)
			continue
		}
		sa, sb, err := Bisect(ctx, sub, need, opt)
		if err != nil {
			return nil, nil, err
		}
		for _, v := range sa {
			a = append(a, newToOld[v])
			accA += sub.VertexWeight(v)
		}
		for _, v := range sb {
			b = append(b, newToOld[v])
		}
	}
	if len(a) == 0 && len(b) > 1 {
		a, b = b[:1], b[1:]
	}
	if len(b) == 0 && len(a) > 1 {
		b, a = a[:1], a[1:]
	}
	return a, b, nil
}

// RSB partitions g into p parts of near-equal vertex weight by recursive
// spectral bisection, returning a per-vertex-slot partition label (−1 for
// dead slots). The returned slice is freshly allocated and caller-owned.
//
// p need not be a power of two: at each level the part count is split as
// ⌈p/2⌉ / ⌊p/2⌋ and the weight target proportionally.
func RSB(g *graph.Graph, p int, opt Options) ([]int32, error) {
	return RSBContext(context.Background(), g, p, opt)
}

// RSBContext is RSB bounded by ctx, which every Lanczos step polls: a
// done ctx aborts with an error matching cancel.ErrCanceled.
func RSBContext(ctx context.Context, g *graph.Graph, p int, opt Options) ([]int32, error) {
	if p < 1 {
		return nil, fmt.Errorf("spectral: rsb: p=%d", p)
	}
	if g.NumVertices() < p {
		return nil, fmt.Errorf("spectral: rsb: %d vertices into %d parts", g.NumVertices(), p)
	}
	part := make([]int32, g.Order())
	for i := range part {
		part[i] = -1
	}
	err := rsbRec(ctx, g, g.Vertices(), p, 0, part, opt)
	return part, err
}

func rsbRec(ctx context.Context, g *graph.Graph, vs []graph.Vertex, p int, base int32, part []int32, opt Options) error {
	if p == 1 {
		for _, v := range vs {
			part[v] = base
		}
		return nil
	}
	sub, _, newToOld := g.InducedSubgraph(vs)
	pa := (p + 1) / 2
	pb := p / 2
	var total float64
	for _, v := range vs {
		total += g.VertexWeight(v)
	}
	target := total * float64(pa) / float64(p)
	a, b, err := Bisect(ctx, sub, target, opt)
	if err != nil {
		return err
	}
	if len(a) == 0 || len(b) == 0 {
		return fmt.Errorf("spectral: rsb: empty side at p=%d", p)
	}
	// Each side must carry at least as many vertices as the partitions it
	// will be split into; skewed spectral or component-packed splits can
	// violate that on degenerate graphs, so rebalance deterministically.
	for len(a) < pa && len(b) > pb {
		a = append(a, b[len(b)-1])
		b = b[:len(b)-1]
	}
	for len(b) < pb && len(a) > pa {
		b = append(b, a[len(a)-1])
		a = a[:len(a)-1]
	}
	if len(a) < pa || len(b) < pb {
		return fmt.Errorf("spectral: rsb: cannot give %d+%d vertices to %d+%d parts", len(a), len(b), pa, pb)
	}
	va := make([]graph.Vertex, len(a))
	for i, v := range a {
		va[i] = newToOld[v]
	}
	vb := make([]graph.Vertex, len(b))
	for i, v := range b {
		vb[i] = newToOld[v]
	}
	if err := rsbRec(ctx, g, va, pa, base, part, opt); err != nil {
		return err
	}
	return rsbRec(ctx, g, vb, pb, base+int32(pa), part, opt)
}
