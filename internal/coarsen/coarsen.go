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
// The entry point is Hierarchy (hierarchy.go): the full V-cycle for large
// graphs, a journal-repairable stack of coarse graphs the engine keeps
// alive across Repartition calls behind igp.WithMultilevel. Every level is
// matched and contracted there (build, rematch); CoarseBalance is its
// coarsest-level balance pass.
package coarsen

import (
	"context"
	"math"

	"repro/internal/balance"
	"repro/internal/graph"
	"repro/internal/layering"
	"repro/internal/lp"
	"repro/internal/partition"
)

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
