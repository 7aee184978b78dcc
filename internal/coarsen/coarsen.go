// Package coarsen implements the multilevel extension the paper sketches
// in §4 ("Another option is to use a multilevel approach and apply
// incremental partitioning recursively. We are currently exploring this
// approach."):
//
//  1. new vertices are assigned as usual (phase 1);
//  2. the graph is coarsened by heavy-edge matching restricted to
//     same-partition vertex pairs, so the coarse graph inherits a
//     well-defined partition;
//  3. the balance LP runs at the coarse level with weighted vertices,
//     moving whole clusters near the boundary; and
//  4. the result is projected back and polished by the ordinary
//     fine-level IGP (whose LPs are now nearly trivial).
//
// The benefit is not LP size (that depends only on P) but boundary
// traffic: most of the imbalance is corrected by moving weight-w clusters
// with single decisions, shrinking the number of fine-level stages and
// refinement rounds on large incremental changes.
//
// The entry point built on these kernels is Hierarchy (hierarchy.go):
// the full V-cycle for large graphs, a journal-repairable stack of
// coarse graphs the engine keeps alive across Repartition calls behind
// igp.WithMultilevel.
package coarsen

import (
	"context"
	"math"
	"sort"

	"repro/internal/balance"
	"repro/internal/graph"
	"repro/internal/layering"
	"repro/internal/lp"
	"repro/internal/par"
	"repro/internal/partition"
)

// Match computes a heavy-edge matching restricted to pairs within the
// same partition. match[v] is v's partner (or v itself when unmatched);
// dead vertices map to themselves. The result is deterministic — rounds
// of mutual proposals under a fixed total edge order (weight descending,
// then a symmetric edge hash, then partner id) — and identical at every
// worker count; Match is the sequential entry point. The returned slice
// is freshly allocated and caller-owned (unlike Hierarchy's arena-backed
// returns).
func Match(g *graph.Graph, a *partition.Assignment) []graph.Vertex {
	return MatchPar(g, a, nil, 1)
}

// MatchPar is Match sharded over a worker group: procs <= 1 (or a nil
// group with procs > 1 falling back to a private group) runs the exact
// same proposal rounds inline, so the result is bit-identical at every
// worker count.
func MatchPar(g *graph.Graph, a *partition.Assignment, group *par.Group, procs int) []graph.Vertex {
	n := g.Order()
	match := make([]graph.Vertex, n)
	for v := range match {
		match[v] = graph.Vertex(v)
	}
	m := matcher{group: group, procs: procs}
	free := g.Vertices()
	m.run(g, a.Part, free)
	for _, v := range free {
		match[v] = m.mate[v]
	}
	return match
}

// Contract builds the coarse graph for a matching: matched pairs merge
// into one coarse vertex whose weight is the pair's total; edge weights
// aggregate (internal pair edges vanish). It returns the coarse graph,
// the fine→coarse map, and the coarse partition assignment. The coarse
// graph is deterministic down to adjacency order: aggregated edges are
// inserted in sorted (min-endpoint, max-endpoint) order, so downstream
// kernels that walk coarse adjacency see the same float summation order
// on every run. All three returns are freshly allocated and
// caller-owned; nothing aliases g or match.
func Contract(g *graph.Graph, a *partition.Assignment, match []graph.Vertex) (*graph.Graph, []graph.Vertex, *partition.Assignment) {
	fineToCoarse := make([]graph.Vertex, g.Order())
	for i := range fineToCoarse {
		fineToCoarse[i] = -1
	}
	gc := graph.New(g.NumVertices())
	var coarsePart []int32
	for _, v := range g.Vertices() {
		if fineToCoarse[v] >= 0 {
			continue
		}
		u := match[v]
		w := g.VertexWeight(v)
		if u != v && fineToCoarse[u] < 0 {
			w += g.VertexWeight(u)
		}
		cv := gc.AddVertex(w)
		fineToCoarse[v] = cv
		if u != v {
			fineToCoarse[u] = cv
		}
		coarsePart = append(coarsePart, a.Part[v])
	}
	// Aggregate edges. The map is only an accumulator: insertion happens
	// over the sorted key list, never in map-iteration order.
	type edgeKey struct{ a, b graph.Vertex }
	agg := make(map[edgeKey]float64)
	keys := make([]edgeKey, 0, g.NumEdges())
	for _, v := range g.Vertices() {
		ws := g.EdgeWeights(v)
		for i, u := range g.Neighbors(v) {
			cv, cu := fineToCoarse[v], fineToCoarse[u]
			if cv == cu || v > u {
				continue
			}
			k := edgeKey{cv, cu}
			if cv > cu {
				k = edgeKey{cu, cv}
			}
			if _, seen := agg[k]; !seen {
				keys = append(keys, k)
			}
			agg[k] += ws[i]
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].a != keys[j].a {
			return keys[i].a < keys[j].a
		}
		return keys[i].b < keys[j].b
	})
	for _, k := range keys {
		_ = gc.AddEdge(k.a, k.b, agg[k])
	}
	ca := &partition.Assignment{Part: coarsePart, P: a.P}
	return gc, fineToCoarse, ca
}

// CoarseBalance runs one weighted balance pass on a coarse graph whose
// vertex weights count fine vertices, moving whole clusters
// boundary-first. Flows are computed in fine-vertex units from weighted δ
// bounds and realized greedily without overshooting, so a small residual
// may remain for a fine-level polish; the escalation ladder relaxes ε up
// to epsMax before giving up (moved = 0, no error) exactly like the
// engine's balance stages. targets are the fine-level per-partition
// vertex-count targets.
func CoarseBalance(ctx context.Context, gc *graph.Graph, ca *partition.Assignment, targets []int, solver lp.Solver, epsMax float64) (moved int, err error) {
	lay, err := layering.Layer(gc, ca)
	if err != nil {
		return 0, err
	}
	p := ca.P
	// Weighted δ and sizes (all integers: fine vertices have unit weight).
	wDelta := make([][]int, p)
	for i := range wDelta {
		wDelta[i] = make([]int, p)
	}
	for i := 0; i < p; i++ {
		for j := 0; j < p; j++ {
			for _, v := range lay.Pool(int32(i), int32(j)) {
				wDelta[i][j] += int(math.Round(gc.VertexWeight(v)))
			}
		}
	}
	weights := ca.Weights(gc)
	sizes := make([]int, p)
	for q, w := range weights {
		sizes[q] = int(math.Round(w))
	}
	if epsMax < 1 {
		epsMax = 1
	}
	for eps := 1.0; eps <= epsMax; eps++ {
		m, err := balance.Formulate(wDelta, sizes, targets, eps)
		if err != nil {
			return 0, err
		}
		flows, sol, err := balance.Solve(ctx, m, solver)
		if err != nil {
			return 0, err
		}
		if sol.Status != lp.Optimal {
			continue // relax further
		}
		for _, f := range flows {
			remaining := f.Amount
			for _, v := range lay.Pool(f.From, f.To) {
				w := int(math.Round(gc.VertexWeight(v)))
				if w > remaining {
					continue // a lighter cluster deeper in the pool may still fit
				}
				ca.Part[v] = f.To
				remaining -= w
				moved += w
				if remaining == 0 {
					break
				}
			}
		}
		return moved, nil
	}
	return 0, nil // infeasible at every ε: leave everything to the fine level
}
