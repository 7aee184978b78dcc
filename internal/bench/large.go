package bench

// large.go is the large-graph multilevel tier: paper-scale workloads
// (n ≈ 10⁵–10⁶, far beyond the DIME-substitute meshes) that the flat
// pipeline cannot partition from scratch in reasonable time, exercised
// through the engine's V-cycle mode. Two workload families bracket the
// coarsening behavior: a √n×√n grid (bounded degree, the paper's mesh
// regime) and a Barabási–Albert power-law graph (heavy-tailed degrees,
// adversarial for heavy-edge matching). Each family gets the calls a
// user pays for: a cold V-cycle row (degenerate flood-fill start,
// spectral coarsest init), an idle row (a size-preserving edit burst: the
// call arrives balanced, so the V-cycle is skipped), a warm row (a small
// growth burst: the call arrives imbalanced and builds its hierarchy
// anew) and a local row (a large burst hung off one vertex). Beside every
// row after the cold one stands a flat engine, kept warm on a clone of
// the cold row's result that gets the same edits: the trade the V-cycle
// is kept for is its cut on the local row against its time on the warm
// one.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/partition"
)

// MultilevelRow is one large-graph tier measurement.
type MultilevelRow struct {
	Workload string        // "grid" or "powerlaw"
	N, E     int           // graph size
	Mode     string        // "vcycle-cold", "vcycle-idle", "vcycle-warm", "vcycle-local"
	Time     time.Duration // wall clock of the run
	Cut      float64       // resulting cut weight
	FlatTime time.Duration // the flat engine's call on the same edits (0 on cold rows)
	FlatCut  float64       // the flat engine's cut (0 on cold rows)
	Levels   int           // hierarchy depth (rows that ran the V-cycle)
	ArcsRead int           // arcs the per-level refiners read, summed over the levels (LevelStats.ArcsRead)
	Skipped  bool          // call arrived balanced: V-cycle not run (idle rows)
	Balanced bool          // exact vertex-count balance achieved
	Allocs   uint64        // heap allocations of the call (MemStats.Mallocs delta)
	HeapMB   float64       // live heap after the call, vcycle-cold rows only (0 elsewhere)
}

// largeWorkload builds one named workload of ~n vertices.
func largeWorkload(name string, n int, seed int64) (*graph.Graph, error) {
	switch name {
	case "grid":
		side := int(math.Round(math.Sqrt(float64(n))))
		return graph.Grid(side, side), nil
	case "powerlaw":
		return graph.PowerLaw(n, 4, rand.New(rand.NewSource(seed)))
	}
	return nil, fmt.Errorf("bench: unknown large workload %q", name)
}

// editBurst applies k deterministic small edits: vertex-weight jitter
// and edge flips (remove + re-add at the same weight). These deltas
// leave partition sizes intact, so the call that follows arrives
// balanced and skips the V-cycle.
func editBurst(g *graph.Graph, rng *rand.Rand, k int) {
	n := g.Order()
	for i := 0; i < k; i++ {
		v := graph.Vertex(rng.Intn(n))
		if !g.Alive(v) {
			continue
		}
		if i%3 == 0 {
			g.SetVertexWeight(v, 1+rng.Float64())
		} else if g.Degree(v) > 0 {
			us := g.Neighbors(v)
			u := us[rng.Intn(len(us))]
			w, _ := g.EdgeWeight(v, u)
			_ = g.RemoveEdge(v, u)
			_ = g.AddEdge(v, u, w)
		}
	}
}

// growthBurst attaches k unassigned unit vertices to random live
// vertices: phase 1 places them, the partition sizes drift off their
// targets, and the call that follows runs the V-cycle.
func growthBurst(g *graph.Graph, a *partition.Assignment, rng *rand.Rand, k int) {
	n := g.Order()
	for k > 0 {
		if u := graph.Vertex(rng.Intn(n)); g.Alive(u) {
			_ = g.AddEdge(g.AddVertex(1), u, 1)
			k--
		}
	}
	a.Grow(g.Order())
}

// localBurst hangs a random tree of k unassigned unit vertices off one
// random live vertex: phase 1 puts them all in its partition, the
// localized growth where the flat pipeline's cut drifts.
func localBurst(g *graph.Graph, a *partition.Assignment, rng *rand.Rand, k int) {
	at := graph.Vertex(rng.Intn(g.Order()))
	for !g.Alive(at) {
		at = graph.Vertex(rng.Intn(g.Order()))
	}
	tree := []graph.Vertex{at}
	for ; k > 0; k-- {
		v := g.AddVertex(1)
		_ = g.AddEdge(v, tree[rng.Intn(len(tree))], 1)
		tree = append(tree, v)
	}
	a.Grow(g.Order())
}

// MultilevelTable measures the V-cycle on the large-graph tier: for each
// workload family it runs a cold multilevel Repartition from a degenerate
// flood-fill assignment, an idle one after a small size-preserving edit
// burst, a warm one after a 64-vertex growth burst and a local one after
// an n/20-vertex tree hung off one vertex, and a flat engine on a clone
// of the cold result takes the same edits and calls. It asserts validity
// and exact balance on every row, multilevel and flat, that the idle
// call skipped the V-cycle and that every other call ran it over a real
// hierarchy. A failed assertion is an error, so the table doubles as the
// CI check.
func MultilevelTable(cfg Config, n int) ([]MultilevelRow, error) {
	cfg = cfg.withDefaults()
	var rows []MultilevelRow
	for _, name := range []string{"grid", "powerlaw"} {
		g, err := largeWorkload(name, n, cfg.Seed)
		if err != nil {
			return nil, err
		}
		a := partition.New(g.Order(), cfg.P)
		for v := range a.Part {
			a.Part[v] = 0
		}
		opt := engine.Options{Solver: cfg.Solver, Refine: true}
		mlOpt := opt
		mlOpt.Multilevel = engine.MultilevelOptions{Enabled: true, Seed: cfg.Seed}
		e := engine.New(g, mlOpt)
		// call times one Repartition and checks the row's hard contract.
		// The allocation count and the cold row's live heap are read
		// outside the timed region.
		call := func(mode string) (MultilevelRow, error) {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			mallocs, t0 := ms.Mallocs, time.Now()
			st, err := e.Repartition(context.Background(), a)
			d := time.Since(t0)
			runtime.ReadMemStats(&ms)
			if err != nil {
				return MultilevelRow{}, fmt.Errorf("bench: %s %s: %w", name, mode, err)
			}
			row, err := multilevelRow(g, a, name, mode, d, st)
			row.Allocs = ms.Mallocs - mallocs
			if mode == "vcycle-cold" {
				runtime.GC()
				runtime.ReadMemStats(&ms)
				row.HeapMB = float64(ms.HeapAlloc) / (1 << 20)
			}
			return row, err
		}
		row, err := call("vcycle-cold")
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)

		// The flat engine starts from the cold row's result; each later
		// row applies one edit to both graphs from two generators on the
		// same seed, so the two sides see the same edits.
		gF, aF := g.Clone(), a.Clone()
		eF := engine.New(gF, opt)
		seed := cfg.Seed ^ 0x1a26e
		rng, rngF := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		for _, step := range []struct {
			mode string
			edit func(*graph.Graph, *partition.Assignment, *rand.Rand)
		}{
			{"vcycle-idle", func(g *graph.Graph, _ *partition.Assignment, rng *rand.Rand) { editBurst(g, rng, 8) }},
			{"vcycle-warm", func(g *graph.Graph, a *partition.Assignment, rng *rand.Rand) { growthBurst(g, a, rng, 64) }},
			{"vcycle-local", func(g *graph.Graph, a *partition.Assignment, rng *rand.Rand) { localBurst(g, a, rng, n/20) }},
		} {
			step.edit(g, a, rng)
			step.edit(gF, aF, rngF)
			if row, err = call(step.mode); err != nil {
				return nil, err
			}
			t0 := time.Now()
			_, err := eF.Repartition(context.Background(), aF)
			row.FlatTime = time.Since(t0)
			if err != nil {
				return nil, fmt.Errorf("bench: %s %s flat: %w", name, step.mode, err)
			}
			if err := aF.Validate(gF); err != nil || !balancedExactly(gF, aF) {
				return nil, fmt.Errorf("bench: %s %s flat: invalid (%v) or imbalanced: sizes %v", name, step.mode, err, aF.Sizes(gF))
			}
			row.FlatCut = partition.Cut(gF, aF).TotalWeight
			rows = append(rows, row)
		}
		e.Close()
		eF.Close()
	}
	return rows, nil
}

// multilevelRow validates the run's hard contract (valid assignment,
// exact balance, and by mode: the idle call skipped the V-cycle, every
// other call ran it over a hierarchy at least two levels deep) and
// packages the measurement.
func multilevelRow(g *graph.Graph, a *partition.Assignment, workload, mode string, d time.Duration, st *engine.Stats) (MultilevelRow, error) {
	if err := a.Validate(g); err != nil {
		return MultilevelRow{}, fmt.Errorf("bench: %s %s left an invalid assignment: %w", workload, mode, err)
	}
	row := MultilevelRow{
		Workload: workload, N: g.NumVertices(), E: g.NumEdges(),
		Mode: mode, Time: d, Cut: partition.Cut(g, a).TotalWeight,
		Levels: len(st.Levels), Skipped: st.VCycleSkipped,
		Balanced: balancedExactly(g, a),
	}
	for _, ls := range st.Levels {
		row.ArcsRead += ls.ArcsRead
	}
	if !row.Balanced {
		return MultilevelRow{}, fmt.Errorf("bench: %s %s left imbalance: sizes %v", workload, mode, a.Sizes(g))
	}
	if idle := mode == "vcycle-idle"; row.Skipped != idle {
		return MultilevelRow{}, fmt.Errorf("bench: %s %s: V-cycle skipped = %v", workload, mode, row.Skipped)
	}
	if !row.Skipped && row.Levels < 2 {
		return MultilevelRow{}, fmt.Errorf("bench: %s %s built only %d hierarchy levels", workload, mode, row.Levels)
	}
	return row, nil
}

// balancedExactly reports exact vertex-count balance (every partition at
// its ⌊n/p⌋/⌈n/p⌉ target).
func balancedExactly(g *graph.Graph, a *partition.Assignment) bool {
	sizes := a.Sizes(g)
	targets := partition.Targets(g.NumVertices(), a.P)
	for q := range sizes {
		if sizes[q] != targets[q] {
			return false
		}
	}
	return true
}

// FormatMultilevel renders the large-graph tier table. ArcsRead and
// HeapMB are shown on the cold rows.
func FormatMultilevel(rows []MultilevelRow, p int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Large-graph multilevel tier (P=%d)\n", p)
	fmt.Fprintf(&b, "  %-10s %8s %9s %-12s %10s %9s %10s %9s %7s %9s %8s %9s %7s\n",
		"Workload", "N", "E", "Mode", "Time", "Cut", "FlatTime", "FlatCut", "Levels", "ArcsRead", "Skipped", "Allocs", "HeapMB")
	for _, r := range rows {
		arcs, heap, flatTime, flatCut := "-", "-", "-", "-"
		if r.Mode == "vcycle-cold" {
			arcs, heap = fmt.Sprint(r.ArcsRead), fmt.Sprintf("%.1f", r.HeapMB)
		} else {
			flatTime, flatCut = fmtDur(r.FlatTime), fmt.Sprintf("%.0f", r.FlatCut)
		}
		fmt.Fprintf(&b, "  %-10s %8d %9d %-12s %10s %9.0f %10s %9s %7d %9s %8v %9d %7s\n",
			r.Workload, r.N, r.E, r.Mode, fmtDur(r.Time), r.Cut, flatTime, flatCut, r.Levels, arcs, r.Skipped, r.Allocs, heap)
	}
	return b.String()
}
