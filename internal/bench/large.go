package bench

// large.go is the large-graph multilevel tier: paper-scale workloads
// (n ≈ 10⁵–10⁶, far beyond the DIME-substitute meshes) that the flat
// pipeline cannot partition from scratch in reasonable time, exercised
// through the engine's V-cycle mode. Two workload families bracket the
// coarsening behavior: a √n×√n grid (bounded degree, the paper's mesh
// regime) and a Barabási–Albert power-law graph (heavy-tailed degrees,
// adversarial for heavy-edge matching). Each family gets the three
// calls a user pays for: a cold V-cycle row (degenerate flood-fill
// start, spectral coarsest init), an idle row (a size-preserving edit
// burst: the call arrives balanced, so the V-cycle is skipped and the
// hierarchy left alone) and a warm row (a growth burst: the call arrives
// imbalanced and repairs the hierarchy).

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
	Mode     string        // "vcycle-cold", "vcycle-idle", "vcycle-warm"
	Time     time.Duration // wall clock of the run
	Cut      float64       // resulting cut weight
	Levels   int           // hierarchy depth (rows that ran the V-cycle)
	Repaired bool          // hierarchy journal-repaired (warm rows)
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

// MultilevelTable measures the V-cycle on the large-graph tier: for each
// workload family it runs a cold multilevel Repartition from a degenerate
// flood-fill assignment, an idle one after a small size-preserving edit
// burst and a warm one after a growth burst, asserting validity and exact
// balance on every row, that the idle call skipped the V-cycle, that the
// cold and warm calls ran it over a real hierarchy and (grid warm)
// repaired it. A failed assertion is an error, so the table doubles as
// the CI check.
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
		e := engine.New(g, engine.Options{
			Solver:     cfg.Solver,
			Refine:     true,
			Multilevel: engine.MultilevelOptions{Enabled: true, Seed: cfg.Seed},
		})
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
		rng := rand.New(rand.NewSource(cfg.Seed ^ 0x1a26e))

		row, err := call("vcycle-cold")
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)

		editBurst(g, rng, 8)
		if row, err = call("vcycle-idle"); err != nil {
			return nil, err
		}
		rows = append(rows, row)

		// One unmeasured growth call first: the cold polish moved a large
		// share of the vertices after uncoarsening (stage loop +
		// refinement), so the first Update after it pays a one-time purity
		// sweep that dissolves and re-matches every group the polish
		// split. The warm row then measures the steady state.
		growthBurst(g, a, rng, 64)
		if _, err = call("vcycle-warm"); err != nil {
			return nil, err
		}
		growthBurst(g, a, rng, 64)
		if row, err = call("vcycle-warm"); err != nil {
			return nil, err
		}
		// Full hierarchy repair is the mesh-regime contract: on power-law
		// graphs a repair at level l dissolves every group adjacent to a
		// dissolved hub's cluster, and the amplified wave can push an
		// upper level past the stall or dead-slot guard — those (small,
		// cheap) levels rebuild and the Repaired flag reports it honestly.
		if name == "grid" && !row.Repaired {
			return nil, fmt.Errorf("bench: %s warm V-cycle recoarsened instead of repairing the hierarchy", name)
		}
		rows = append(rows, row)
		e.Close()
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
		Levels: len(st.Levels), Repaired: st.HierarchyRepaired, Skipped: st.VCycleSkipped,
		Balanced: balancedExactly(g, a),
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

// FormatMultilevel renders the large-graph tier table.
func FormatMultilevel(rows []MultilevelRow, p int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Large-graph multilevel tier (P=%d)\n", p)
	fmt.Fprintf(&b, "  %-10s %8s %9s %-12s %10s %9s %7s %9s %8s %9s %7s\n",
		"Workload", "N", "E", "Mode", "Time", "Cut", "Levels", "Repaired", "Skipped", "Allocs", "HeapMB")
	for _, r := range rows {
		heap := "-"
		if r.Mode == "vcycle-cold" {
			heap = fmt.Sprintf("%.1f", r.HeapMB)
		}
		fmt.Fprintf(&b, "  %-10s %8d %9d %-12s %10s %9.0f %7d %9v %8v %9d %7s\n",
			r.Workload, r.N, r.E, r.Mode, fmtDur(r.Time), r.Cut, r.Levels, r.Repaired, r.Skipped, r.Allocs, heap)
	}
	return b.String()
}
