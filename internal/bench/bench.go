// Package bench is the experiment harness: it regenerates every table and
// figure of the paper's evaluation section on the DIME-substitute meshes,
// producing the same rows the paper reports (cutset Total/Max/Min, Time-s,
// Time-p, stage counts, LP sizes, and parallel speedups).
//
// Two timing domains appear in the output, and they are kept explicit:
//
//   - Time-s is real Go wall-clock time of the sequential implementation
//     (comparable across SB/IGP/IGPR rows, like the paper's 1-node column);
//   - Speedup is the simulated CM-5 makespan ratio T_sim(1)/T_sim(ranks)
//     from the message-passing SPMD implementation under the calibrated
//     cost model, and Time-p = Time-s / Speedup (the parallel time the
//     measured sequential run would take at the simulated speedup, like
//     the paper's 32-node column).
package bench

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/baseline"
	"repro/internal/comm"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/lp"
	"repro/internal/mesh"
	"repro/internal/parallel"
	"repro/internal/partition"
	"repro/internal/refine"
	"repro/internal/spectral"
)

// Config controls an experiment run.
type Config struct {
	// Seed drives mesh generation and eigen-solver starts.
	Seed int64
	// P is the number of partitions (paper: 32).
	P int
	// Ranks is the simulated machine size (paper: 32).
	Ranks int
	// Solver is the sequential simplex used by IGP/IGPR (nil = lp.Default();
	// the paper's own is lp.Dense).
	Solver lp.Solver
	// Parallelism is the worker count for the engine's sharded kernels
	// (0 = GOMAXPROCS, 1 = one inline shard per region). Results are
	// bit-identical for every value; only Time-s changes.
	Parallelism int
	// SkipSim disables the simulated parallel runs (faster; Time-p and
	// Speedup columns become zero).
	SkipSim bool
}

func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 1994
	}
	if c.P == 0 {
		c.P = 32
	}
	if c.Ranks == 0 {
		c.Ranks = 32
	}
	if c.Solver == nil {
		c.Solver = lp.Default()
	}
	return c
}

// MethodResult is one table cell group (one partitioner on one mesh).
type MethodResult struct {
	TimeSeq time.Duration // Go wall clock, sequential
	Sim1    time.Duration // simulated 1-rank makespan
	SimP    time.Duration // simulated Ranks-rank makespan
	Speedup float64       // Sim1 / SimP
	TimePar time.Duration // TimeSeq / Speedup
	Stages  int           // balancing stages (IGP(k) in the paper)
	LPVars  int           // dense-form v of the largest balance LP
	LPCons  int           // dense-form c
	Cut     partition.CutStats
}

// StepResult is one refined-mesh block of a table.
type StepResult struct {
	V, E int
	NewV int // vertices added relative to the predecessor
	SB   MethodResult
	IGP  MethodResult
	IGPR MethodResult
}

// TableResult is a full experiment table.
type TableResult struct {
	Name    string
	BaseV   int
	BaseE   int
	BaseCut partition.CutStats
	Steps   []StepResult
}

// runSB partitions g from scratch with recursive spectral bisection.
func runSB(g *graph.Graph, cfg Config) (MethodResult, *partition.Assignment, error) {
	t0 := time.Now()
	part, err := spectral.RSB(g, cfg.P, spectral.Options{Seed: cfg.Seed})
	if err != nil {
		return MethodResult{}, nil, err
	}
	dur := time.Since(t0)
	a := &partition.Assignment{Part: part, P: cfg.P}
	return MethodResult{TimeSeq: dur, Cut: partition.Cut(g, a)}, a, nil
}

// runIGP repartitions g starting from prev's assignment.
func runIGP(g *graph.Graph, prev *partition.Assignment, cfg Config, withRefine bool) (MethodResult, *partition.Assignment, error) {
	a := prev.Clone()
	t0 := time.Now()
	st, err := engine.New(g, engine.Options{
		Solver:      cfg.Solver,
		Refine:      withRefine,
		Parallelism: cfg.Parallelism,
	}).Repartition(context.Background(), a)
	dur := time.Since(t0)
	if err != nil {
		return MethodResult{}, nil, err
	}
	res := MethodResult{
		TimeSeq: dur,
		Stages:  st.Stages,
		LPVars:  st.LPVars,
		LPCons:  st.LPCons,
		Cut:     partition.Cut(g, a),
	}

	if !cfg.SkipSim {
		sim := func(ranks int) (time.Duration, error) {
			w, err := comm.NewWorld(ranks, comm.CM5())
			if err != nil {
				return 0, err
			}
			ap := prev.Clone()
			r, err := parallel.Repartition(context.Background(), w, g, ap, engine.Options{Refine: withRefine})
			if err != nil {
				return 0, err
			}
			return r.SimTime, nil
		}
		var err error
		if res.Sim1, err = sim(1); err != nil {
			return res, a, err
		}
		if res.SimP, err = sim(cfg.Ranks); err != nil {
			return res, a, err
		}
		if res.SimP > 0 {
			res.Speedup = float64(res.Sim1) / float64(res.SimP)
			res.TimePar = time.Duration(float64(res.TimeSeq) / res.Speedup)
		}
	}
	return res, a, nil
}

// runTable executes a full mesh-sequence experiment. For chained
// sequences each method continues from its own previous assignment (SB
// always re-runs from scratch); for fan-out sequences every step starts
// from the base assignment, exactly as in the paper's two setups.
func runTable(name string, seq *mesh.Sequence, cfg Config) (*TableResult, error) {
	cfg = cfg.withDefaults()
	out := &TableResult{Name: name, BaseV: seq.Base.NumVertices(), BaseE: seq.Base.NumEdges()}

	basePart, err := spectral.RSB(seq.Base, cfg.P, spectral.Options{Seed: cfg.Seed})
	if err != nil {
		return nil, fmt.Errorf("bench: base RSB: %w", err)
	}
	baseA := &partition.Assignment{Part: basePart, P: cfg.P}
	out.BaseCut = partition.Cut(seq.Base, baseA)

	prevIGP := baseA
	prevIGPR := baseA
	for i, step := range seq.Steps {
		g := step.Graph
		sr := StepResult{V: g.NumVertices(), E: g.NumEdges(), NewV: step.NewVertices}

		if sr.SB, _, err = runSB(g, cfg); err != nil {
			return nil, fmt.Errorf("bench: step %d SB: %w", i, err)
		}
		var aIGP, aIGPR *partition.Assignment
		if sr.IGP, aIGP, err = runIGP(g, prevIGP, cfg, false); err != nil {
			return nil, fmt.Errorf("bench: step %d IGP: %w", i, err)
		}
		if sr.IGPR, aIGPR, err = runIGP(g, prevIGPR, cfg, true); err != nil {
			return nil, fmt.Errorf("bench: step %d IGPR: %w", i, err)
		}
		if seq.Chained {
			prevIGP, prevIGPR = aIGP, aIGPR
		}
		out.Steps = append(out.Steps, sr)
	}
	return out, nil
}

// Fig11 regenerates the paper's Figure 11 table: the chained mesh-A
// sequence (~1071 → 1096 → 1121 → 1152 → 1192 vertices), P=32.
func Fig11(cfg Config) (*TableResult, error) {
	cfg = cfg.withDefaults()
	seq, err := mesh.PaperSequenceA(cfg.Seed)
	if err != nil {
		return nil, err
	}
	return runTable("Figure 11 (mesh A, chained refinements)", seq, cfg)
}

// Fig14 regenerates the paper's Figure 14 table: the fan-out mesh-B
// experiment (~10166 base; +48, +139, +229, +672 vertices), P=32.
func Fig14(cfg Config) (*TableResult, error) {
	cfg = cfg.withDefaults()
	seq, err := mesh.PaperSequenceB(cfg.Seed)
	if err != nil {
		return nil, err
	}
	return runTable("Figure 14 (mesh B, independent refinements)", seq, cfg)
}

// Format renders a TableResult in the paper's layout.
func Format(t *TableResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", t.Name)
	fmt.Fprintf(&b, "%s\n", strings.Repeat("=", len(t.Name)))
	fmt.Fprintf(&b, "Initial graph: |V|=%d |E|=%d   cutset total=%d max=%.0f min=%.0f\n\n",
		t.BaseV, t.BaseE, t.BaseCut.Total, t.BaseCut.Max, t.BaseCut.Min)
	for _, s := range t.Steps {
		fmt.Fprintf(&b, "|V| = %d  |E| = %d  (+%d vertices)\n", s.V, s.E, s.NewV)
		fmt.Fprintf(&b, "  %-6s %10s %10s %8s %7s %6s %6s %6s\n",
			"Method", "Time-s", "Time-p", "Speedup", "Stages", "Cut", "Max", "Min")
		row := func(name string, m MethodResult, isSB bool) {
			tp, spd := "-", "-"
			if !isSB && m.Speedup > 0 {
				tp = fmtDur(m.TimePar)
				spd = fmt.Sprintf("%.1f", m.Speedup)
			}
			stages := "-"
			if !isSB {
				stages = fmt.Sprintf("%d", m.Stages)
			}
			fmt.Fprintf(&b, "  %-6s %10s %10s %8s %7s %6d %6.0f %6.0f\n",
				name, fmtDur(m.TimeSeq), tp, spd, stages, m.Cut.Total, m.Cut.Max, m.Cut.Min)
		}
		row("SB", s.SB, true)
		row("IGP", s.IGP, false)
		row("IGPR", s.IGPR, false)
		b.WriteString("\n")
	}
	return b.String()
}

func fmtDur(d time.Duration) string {
	switch {
	case d == 0:
		return "-"
	case d < time.Millisecond:
		return fmt.Sprintf("%.0fµs", float64(d)/float64(time.Microsecond))
	case d < time.Second:
		return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
	default:
		return fmt.Sprintf("%.2fs", float64(d)/float64(time.Second))
	}
}

// SpeedupPoint is one point of the speedup table (experiment E7).
type SpeedupPoint struct {
	Ranks    int
	SimTime  time.Duration
	Speedup  float64
	Messages int64
	Bytes    int64
}

// SpeedupCurve measures the simulated IGP makespan at each rank count on
// the first refinement of the given sequence (the paper's "speedup of
// around 15 to 20 on a 32 node CM-5").
func SpeedupCurve(seq *mesh.Sequence, cfg Config, rankList []int) ([]SpeedupPoint, error) {
	cfg = cfg.withDefaults()
	basePart, err := spectral.RSB(seq.Base, cfg.P, spectral.Options{Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	baseA := &partition.Assignment{Part: basePart, P: cfg.P}
	g := seq.Steps[0].Graph

	var out []SpeedupPoint
	var t1 time.Duration
	for _, ranks := range rankList {
		w, err := comm.NewWorld(ranks, comm.CM5())
		if err != nil {
			return nil, err
		}
		a := baseA.Clone()
		r, err := parallel.Repartition(context.Background(), w, g, a, engine.Options{Refine: true})
		if err != nil {
			return nil, err
		}
		pt := SpeedupPoint{Ranks: ranks, SimTime: r.SimTime, Messages: r.Messages, Bytes: r.Bytes}
		if ranks == 1 || t1 == 0 {
			t1 = r.SimTime
		}
		pt.Speedup = float64(t1) / float64(r.SimTime)
		out = append(out, pt)
	}
	return out, nil
}

// FormatSpeedup renders a speedup curve.
func FormatSpeedup(pts []SpeedupPoint, label string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Simulated CM-5 speedup — %s\n", label)
	fmt.Fprintf(&b, "  %6s %12s %9s %10s %12s\n", "Ranks", "Sim time", "Speedup", "Messages", "Bytes")
	for _, p := range pts {
		fmt.Fprintf(&b, "  %6d %12s %9.2f %10d %12d\n",
			p.Ranks, fmtDur(p.SimTime), p.Speedup, p.Messages, p.Bytes)
	}
	return b.String()
}

// LPSizeRow records the balance-LP dimensions for one mesh size (the
// paper's "v = 188 and c = 126 … independent of the number of vertices").
type LPSizeRow struct {
	V, E   int
	LPVars int
	LPCons int
	Pivots int
}

// LPSizeTable measures the balance-LP size for increasingly large meshes
// with fixed P, demonstrating the paper's size-independence claim.
func LPSizeTable(sizes []int, cfg Config) ([]LPSizeRow, error) {
	cfg = cfg.withDefaults()
	var out []LPSizeRow
	for _, n := range sizes {
		seq, err := mesh.GenerateChained(n, []int{n / 40}, cfg.Seed)
		if err != nil {
			return nil, err
		}
		basePart, err := spectral.RSB(seq.Base, cfg.P, spectral.Options{Seed: cfg.Seed})
		if err != nil {
			return nil, err
		}
		a := &partition.Assignment{Part: basePart, P: cfg.P}
		g := seq.Steps[0].Graph
		st, err := engine.New(g, engine.Options{Solver: cfg.Solver, Parallelism: cfg.Parallelism}).Repartition(context.Background(), a)
		if err != nil {
			return nil, err
		}
		out = append(out, LPSizeRow{V: g.NumVertices(), E: g.NumEdges(),
			LPVars: st.LPVars, LPCons: st.LPCons, Pivots: st.LPIterations})
	}
	return out, nil
}

// FormatLPSize renders the LP-size table.
func FormatLPSize(rows []LPSizeRow, p int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Balance-LP size vs mesh size (P = %d)\n", p)
	fmt.Fprintf(&b, "  %8s %8s %8s %8s %8s\n", "|V|", "|E|", "v", "c", "pivots")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %8d %8d %8d %8d %8d\n", r.V, r.E, r.LPVars, r.LPCons, r.Pivots)
	}
	return b.String()
}

// BaselineRow is one row of the from-scratch baseline comparison.
type BaselineRow struct {
	Name    string
	Time    time.Duration
	Cut     partition.CutStats
	Balance bool
}

// Baselines compares the from-scratch partitioners of the paper's §1
// heuristics survey — recursive spectral (SB), coordinate (RCB) and graph
// (RGB) bisection — on the first refinement of a sequence (ablation A4).
func Baselines(seq *mesh.Sequence, cfg Config) ([]BaselineRow, error) {
	cfg = cfg.withDefaults()
	g := seq.Steps[0].Graph
	pts := make([][2]float64, len(seq.Points))
	for i, p := range seq.Points {
		pts[i] = [2]float64{p.X, p.Y}
	}
	var rows []BaselineRow
	add := func(name string, part []int32, dur time.Duration) {
		a := &partition.Assignment{Part: part, P: cfg.P}
		rows = append(rows, BaselineRow{
			Name:    name,
			Time:    dur,
			Cut:     partition.Cut(g, a),
			Balance: partition.Balanced(a.Sizes(g)),
		})
	}

	t0 := time.Now()
	sb, err := spectral.RSB(g, cfg.P, spectral.Options{Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	add("SB (spectral)", sb, time.Since(t0))

	t0 = time.Now()
	rcb, err := baseline.RCB(g, pts, cfg.P)
	if err != nil {
		return nil, err
	}
	add("RCB (coordinate)", rcb, time.Since(t0))

	t0 = time.Now()
	rgb, err := baseline.RGB(g, cfg.P)
	if err != nil {
		return nil, err
	}
	add("RGB (graph BFS)", rgb, time.Since(t0))
	return rows, nil
}

// FormatBaselines renders the baseline comparison.
func FormatBaselines(rows []BaselineRow, p int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "From-scratch baselines (P = %d)\n", p)
	fmt.Fprintf(&b, "  %-18s %10s %7s %7s %7s %9s\n", "Method", "Time", "Cut", "Max", "Min", "Balanced")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-18s %10s %7d %7.0f %7.0f %9v\n",
			r.Name, fmtDur(r.Time), r.Cut.Total, r.Cut.Max, r.Cut.Min, r.Balance)
	}
	return b.String()
}

// RefineQuality compares IGP, IGPR and the greedy (KL/FM-style) baseline
// cut on one refinement step (ablation A2/A4).
type RefineQuality struct {
	CutIGP    int
	CutIGPR   int
	CutGreedy int
	CutSB     int
}

// RefineComparison runs the ablation on the first step of a sequence.
func RefineComparison(seq *mesh.Sequence, cfg Config) (*RefineQuality, error) {
	cfg = cfg.withDefaults()
	basePart, err := spectral.RSB(seq.Base, cfg.P, spectral.Options{Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	baseA := &partition.Assignment{Part: basePart, P: cfg.P}
	g := seq.Steps[0].Graph

	out := &RefineQuality{}
	aIGP := baseA.Clone()
	if _, err := engine.New(g, engine.Options{Solver: cfg.Solver, Parallelism: cfg.Parallelism}).Repartition(context.Background(), aIGP); err != nil {
		return nil, err
	}
	out.CutIGP = partition.Cut(g, aIGP).Total

	aIGPR := baseA.Clone()
	if _, err := engine.New(g, engine.Options{Solver: cfg.Solver, Refine: true, Parallelism: cfg.Parallelism}).Repartition(context.Background(), aIGPR); err != nil {
		return nil, err
	}
	out.CutIGPR = partition.Cut(g, aIGPR).Total

	aGreedy := aIGP.Clone()
	refine.Greedy(g, aGreedy, 0, 1)
	out.CutGreedy = partition.Cut(g, aGreedy).Total

	sb, _, err := runSB(g, cfg)
	if err != nil {
		return nil, err
	}
	out.CutSB = sb.Cut.Total
	return out, nil
}
