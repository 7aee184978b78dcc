package core

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/cancel"
	"repro/internal/graph"
	"repro/internal/partition"
)

// RepartitionInBatches implements the paper's second fallback for severe
// incremental changes (§2.3): instead of balancing all new vertices at
// once, it reveals them in numBatches groups — ordered by graph distance
// from the previously assigned region, so each batch extends the mesh the
// way the application grew it — and runs a full Repartition cycle per
// batch on the subgraph revealed so far. The last batch covers the whole
// graph, so the final assignment is exactly balanced on g.
//
// Stats from the per-batch runs are aggregated; Stages carries the
// concatenation (its length is the paper's total stage count across
// batches).
func RepartitionInBatches(ctx context.Context, g *graph.Graph, a *partition.Assignment, opt Options, numBatches int) (*Stats, error) {
	if numBatches < 1 {
		return nil, fmt.Errorf("core: batched repartition needs ≥ 1 batch, got %d", numBatches)
	}
	a.Grow(g.Order())
	for v := 0; v < g.Order(); v++ {
		if !g.Alive(graph.Vertex(v)) {
			a.Part[v] = partition.Unassigned
		}
	}
	var olds, news []graph.Vertex
	for v := 0; v < g.Order(); v++ {
		if !g.Alive(graph.Vertex(v)) {
			continue
		}
		if a.Part[v] >= 0 {
			olds = append(olds, graph.Vertex(v))
		} else {
			news = append(news, graph.Vertex(v))
		}
	}
	if len(olds) == 0 {
		return nil, fmt.Errorf("core: batched repartition: no previously assigned vertices")
	}
	if numBatches > len(news) && len(news) > 0 {
		numBatches = len(news)
	}
	if len(news) == 0 || numBatches == 1 {
		return Repartition(ctx, g, a, opt)
	}

	// Order new vertices by distance from the old region; unreachable
	// (orphan) vertices sort last so the cluster fallback sees them in the
	// final batch, when the most context is available.
	_, dist := g.NearestLabeled(a.Part)
	sort.Slice(news, func(i, j int) bool {
		di, dj := dist[news[i]], dist[news[j]]
		if di < 0 {
			di = 1 << 30
		}
		if dj < 0 {
			dj = 1 << 30
		}
		if di != dj {
			return di < dj
		}
		return news[i] < news[j]
	})

	agg := &Stats{}
	revealed := append([]graph.Vertex(nil), olds...)
	for b := 0; b < numBatches; b++ {
		if err := cancel.Check(ctx, "batched repartition"); err != nil {
			return agg, err
		}
		lo := b * len(news) / numBatches
		hi := (b + 1) * len(news) / numBatches
		revealed = append(revealed, news[lo:hi]...)

		sub, _, newToOld := g.InducedSubgraph(revealed)
		subA := partition.New(sub.Order(), a.P)
		for sv, old := range newToOld {
			subA.Part[sv] = a.Part[old]
		}
		st, err := Repartition(ctx, sub, subA, opt)
		if err != nil {
			return agg, fmt.Errorf("core: batch %d/%d: %w", b+1, numBatches, err)
		}
		for sv, old := range newToOld {
			a.Part[old] = subA.Part[sv]
		}
		agg.NewAssigned += st.NewAssigned
		agg.ClusterFallbacks += st.ClusterFallbacks
		agg.Stages = append(agg.Stages, st.Stages...)
		agg.BalanceMoved += st.BalanceMoved
		agg.AssignTime += st.AssignTime
		agg.LayerTime += st.LayerTime
		agg.BalanceTime += st.BalanceTime
		agg.RefineTime += st.RefineTime
		agg.Elapsed += st.Elapsed
		agg.LPIterations += st.LPIterations
		agg.CutIncremental += st.CutIncremental
		agg.CutReused += st.CutReused
		agg.CSRPatched += st.CSRPatched
		agg.Parallelism = st.Parallelism
		for w, d := range st.WorkerBusy {
			if w == len(agg.WorkerBusy) {
				agg.WorkerBusy = append(agg.WorkerBusy, 0)
			}
			agg.WorkerBusy[w] += d
		}
		if b == 0 {
			agg.CutBefore = st.CutBefore
		}
		agg.CutAfter = st.CutAfter
		// Accumulate refinement across batches (movement and pivot totals
		// sum; the LP-size high-water mark carries the max, the final cut,
		// strict switch and stop reason the last batch's).
		if st.Refine != nil {
			if agg.Refine == nil {
				cp := *st.Refine
				agg.Refine = &cp
			} else {
				agg.Refine.Moved += st.Refine.Moved
				agg.Refine.Rounds += st.Refine.Rounds
				agg.Refine.Iterations += st.Refine.Iterations
				agg.Refine.RoundPivots = append(agg.Refine.RoundPivots, st.Refine.RoundPivots...)
				agg.Refine.RoundCuts = append(agg.Refine.RoundCuts, st.Refine.RoundCuts...)
				agg.Refine.RoundMoved = append(agg.Refine.RoundMoved, st.Refine.RoundMoved...)
				if st.Refine.LPVars > agg.Refine.LPVars {
					agg.Refine.LPVars, agg.Refine.LPCons = st.Refine.LPVars, st.Refine.LPCons
				}
				agg.Refine.CutAfter = st.Refine.CutAfter
				agg.Refine.StrictFrom, agg.Refine.Stop = st.Refine.StrictFrom, st.Refine.Stop
			}
		}
	}
	return agg, nil
}
