// Benchmarks regenerating the paper's evaluation artifacts. One benchmark
// (or family) exists per table/figure plus the ablations DESIGN.md lists:
//
//	BenchmarkFig11_*       — Figure 11 rows (mesh A): SB vs IGP vs IGPR
//	BenchmarkFig14_*       — Figure 14 rows (mesh B, -short skips)
//	BenchmarkSpeedup_*     — §4 parallel-speedup claim (simulated CM-5)
//	BenchmarkLPSize        — §4 LP-size independence claim
//	BenchmarkSimplex_*     — ablation A1: network simplex vs its dense oracle
//	BenchmarkRefine_*      — ablation A2: LP refinement vs greedy KL/FM
//	BenchmarkPhase_*       — per-phase costs (assign/layer/balance)
//	BenchmarkMeshGen       — workload generation (Figures 10/12/13)
package igp

import (
	"context"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/balance"
	"repro/internal/comm"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/layering"
	"repro/internal/lp"
	"repro/internal/mesh"
	"repro/internal/parallel"
	"repro/internal/partition"
	"repro/internal/refine"
	"repro/internal/spectral"
)

// fixtures are built once and shared read-only across benchmarks.
type fixture struct {
	seq  *mesh.Sequence
	base *partition.Assignment
}

var (
	fixA, fixB       *fixture
	onceA, onceB     sync.Once
	fixAErr, fixBErr error
)

func meshA(b *testing.B) *fixture {
	b.Helper()
	onceA.Do(func() {
		seq, err := mesh.PaperSequenceA(1994)
		if err != nil {
			fixAErr = err
			return
		}
		part, err := spectral.RSB(seq.Base, 32, spectral.Options{Seed: 1994})
		if err != nil {
			fixAErr = err
			return
		}
		fixA = &fixture{seq: seq, base: &partition.Assignment{Part: part, P: 32}}
	})
	if fixAErr != nil {
		b.Fatal(fixAErr)
	}
	return fixA
}

func meshB(b *testing.B) *fixture {
	b.Helper()
	if testing.Short() {
		b.Skip("mesh B (10k vertices) skipped in -short mode")
	}
	onceB.Do(func() {
		seq, err := mesh.PaperSequenceB(1994)
		if err != nil {
			fixBErr = err
			return
		}
		part, err := spectral.RSB(seq.Base, 32, spectral.Options{Seed: 1994})
		if err != nil {
			fixBErr = err
			return
		}
		fixB = &fixture{seq: seq, base: &partition.Assignment{Part: part, P: 32}}
	})
	if fixBErr != nil {
		b.Fatal(fixBErr)
	}
	return fixB
}

// --- Figure 11 (mesh A) ----------------------------------------------------

func BenchmarkFig11_SB(b *testing.B) {
	f := meshA(b)
	g := f.seq.Steps[0].Graph
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := spectral.RSB(g, 32, spectral.Options{Seed: 1994}); err != nil {
			b.Fatal(err)
		}
	}
}

func benchIGP(b *testing.B, g *graph.Graph, base *partition.Assignment, withRefine bool) {
	b.Helper()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := base.Clone()
		if _, err := engine.New(g, engine.Options{Refine: withRefine}).Repartition(context.Background(), a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig11_IGP(b *testing.B) {
	f := meshA(b)
	benchIGP(b, f.seq.Steps[0].Graph, f.base, false)
}

func BenchmarkFig11_IGPR(b *testing.B) {
	f := meshA(b)
	benchIGP(b, f.seq.Steps[0].Graph, f.base, true)
}

// --- Figure 14 (mesh B) ----------------------------------------------------

func BenchmarkFig14_SB(b *testing.B) {
	f := meshB(b)
	g := f.seq.Steps[0].Graph
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := spectral.RSB(g, 32, spectral.Options{Seed: 1994}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig14_IGP(b *testing.B) {
	f := meshB(b)
	benchIGP(b, f.seq.Steps[0].Graph, f.base, false)
}

func BenchmarkFig14_IGPR(b *testing.B) {
	f := meshB(b)
	benchIGP(b, f.seq.Steps[0].Graph, f.base, true)
}

func BenchmarkFig14_IGP_BigRefinement(b *testing.B) {
	f := meshB(b)
	benchIGP(b, f.seq.Steps[3].Graph, f.base, false)
}

// --- §4 speedup claim (simulated CM-5) -------------------------------------

func benchSpeedup(b *testing.B, ranks int) {
	f := meshA(b)
	g := f.seq.Steps[0].Graph
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, err := comm.NewWorld(ranks, comm.CM5())
		if err != nil {
			b.Fatal(err)
		}
		a := f.base.Clone()
		res, err := parallel.Repartition(context.Background(), w, g, a, engine.Options{Refine: true})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.SimTime.Seconds(), "simsec/op")
	}
}

func BenchmarkSpeedup_1rank(b *testing.B)  { benchSpeedup(b, 1) }
func BenchmarkSpeedup_8ranks(b *testing.B) { benchSpeedup(b, 8) }
func BenchmarkSpeedup_32ranks(b *testing.B) {
	benchSpeedup(b, 32)
}

// --- §4 LP-size independence ------------------------------------------------

func BenchmarkLPSize(b *testing.B) {
	f := meshA(b)
	g := f.seq.Steps[0].Graph
	var vars, cons int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := f.base.Clone()
		st, err := engine.New(g, engine.Options{}).Repartition(context.Background(), a)
		if err != nil {
			b.Fatal(err)
		}
		vars, cons = st.LPVars, st.LPCons
	}
	b.ReportMetric(float64(vars), "lpvars")
	b.ReportMetric(float64(cons), "lpcons")
}

// --- Ablation A1: simplex variants ------------------------------------------

// balanceLP builds a representative balance LP from mesh A's first step.
func balanceLP(b *testing.B) *lp.Problem {
	b.Helper()
	f := meshA(b)
	g := f.seq.Steps[0].Graph
	a := f.base.Clone()
	if _, _, err := engine.Assign(g, a); err != nil {
		b.Fatal(err)
	}
	lay, err := layering.Layer(g, a)
	if err != nil {
		b.Fatal(err)
	}
	targets := partition.Targets(g.NumVertices(), 32)
	m, err := new(balance.Arena).FormulateTol(lay.Delta, a.Sizes(g), targets, 1, 0)
	if err != nil {
		b.Fatal(err)
	}
	return m.Prob
}

func benchSimplex(b *testing.B, s lp.Solver) {
	prob := balanceLP(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol, err := s.Solve(context.Background(), prob)
		if err != nil {
			b.Fatal(err)
		}
		if sol.Status != lp.Optimal {
			b.Fatalf("status %v", sol.Status)
		}
	}
}

func BenchmarkSimplex_Dense(b *testing.B)   { benchSimplex(b, lp.Dense{}) }
func BenchmarkSimplex_Network(b *testing.B) { benchSimplex(b, lp.Network{}) }

// --- Ablation A2/A4: refinement variants -------------------------------------

// unrefined returns a balanced-but-unrefined assignment of mesh A step 1.
func unrefined(b *testing.B) (*graph.Graph, *partition.Assignment) {
	b.Helper()
	f := meshA(b)
	g := f.seq.Steps[0].Graph
	a := f.base.Clone()
	if _, err := engine.New(g, engine.Options{}).Repartition(context.Background(), a); err != nil {
		b.Fatal(err)
	}
	return g, a
}

func BenchmarkRefine_LP(b *testing.B) {
	g, a0 := unrefined(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := a0.Clone()
		var s refine.Scratch
		c, seeds := g.ToCSR(), g.Vertices()
		st, _, err := refine.Drive(context.Background(), g, a, refine.Options{Solver: lp.Default(), Arena: new(refine.LPArena)}, func(strict bool) (*refine.Candidates, error) {
			return s.GainsSeeded(c, a, strict, seeds), nil
		}, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(st.CutAfter, "cut")
	}
}

func BenchmarkRefine_Greedy(b *testing.B) {
	g, a0 := unrefined(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := a0.Clone()
		refine.Greedy(g, a, 1)
		b.ReportMetric(partition.Cut(g, a).TotalWeight, "cut")
	}
}

// --- Per-phase costs ----------------------------------------------------------

func BenchmarkPhase_Assign(b *testing.B) {
	f := meshA(b)
	g := f.seq.Steps[0].Graph
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := f.base.Clone()
		if _, _, err := engine.Assign(g, a); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPhase_Layer measures the steady-state layering cost: a warm
// engine re-layers an unchanged graph from its tracked boundary, the
// situation every balancing stage after the first is in. Compare with
// BenchmarkPhase_LayerOneShot (the seed implementation's behavior) for
// the allocation and time win.
func BenchmarkPhase_Layer(b *testing.B) {
	f := meshA(b)
	g := f.seq.Steps[0].Graph
	a := f.base.Clone()
	if _, _, err := engine.Assign(g, a); err != nil {
		b.Fatal(err)
	}
	eng := engine.New(g, engine.Options{})
	if _, err := eng.Layer(context.Background(), a); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Layer(context.Background(), a); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPhase_LayerOneShot is the one-shot full-scan layering: fresh
// snapshot, fresh result arrays, every vertex and arc visited for level 0.
func BenchmarkPhase_LayerOneShot(b *testing.B) {
	f := meshA(b)
	g := f.seq.Steps[0].Graph
	a := f.base.Clone()
	if _, _, err := engine.Assign(g, a); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := layering.Layer(g, a); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPhase_LayerSmallEdit measures the incremental resync path: one
// edge flip per iteration, then a boundary-seeded re-layer.
func BenchmarkPhase_LayerSmallEdit(b *testing.B) {
	f := meshA(b)
	g := f.seq.Steps[0].Graph.Clone()
	a := f.base.Clone()
	if _, _, err := engine.Assign(g, a); err != nil {
		b.Fatal(err)
	}
	eng := engine.New(g, engine.Options{})
	if _, err := eng.Layer(context.Background(), a); err != nil {
		b.Fatal(err)
	}
	u, v := graph.Vertex(0), graph.Vertex(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if g.HasEdge(u, v) {
			_ = g.RemoveEdge(u, v)
		} else {
			_ = g.AddEdge(u, v, 1)
		}
		if _, err := eng.Layer(context.Background(), a); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPhase_Gains measures the boundary-seeded gain scan through a
// warm scratch (what a warm engine runs when it cannot patch);
// BenchmarkPhase_GainsPatched is a warm engine's round after 32 balanced
// moves — the sync, whose one row read per re-examined vertex also
// reclassifies it, then the pools patched from the logged class changes
// with no row read (TestSteadyStatePatchedRoundAllocs locks it at 0
// allocs/op);
// BenchmarkPhase_GainsOneShot is the full scan with fresh pools.
func BenchmarkPhase_Gains(b *testing.B) {
	g, a := unrefined(b)
	eng := engine.New(g, engine.Options{})
	csr, boundary := g.ToCSR(), eng.Boundary(a)
	var scratch refine.Scratch
	scratch.GainsSeeded(csr, a, false, boundary)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scratch.GainsSeeded(csr, a, false, boundary)
	}
}

func BenchmarkPhase_GainsPatched(b *testing.B) {
	g, a := unrefined(b)
	a = a.Clone()
	eng := engine.New(g, engine.Options{})
	boundary := append([]graph.Vertex(nil), eng.Boundary(a)...)
	slices.Sort(boundary)
	if _, err := eng.Gains(a, false); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 0; k < 32; k++ { // swap partitions pairwise: sizes stay put
			u, v := boundary[(i*64+2*k)%len(boundary)], boundary[(i*64+2*k+1)%len(boundary)]
			a.Part[u], a.Part[v] = a.Part[v], a.Part[u]
		}
		if _, err := eng.Gains(a, false); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPhase_GainsOneShot(b *testing.B) {
	g, a := unrefined(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		new(refine.Scratch).GainsSeeded(g.ToCSR(), a, false, g.Vertices())
	}
}

// BenchmarkEngine_SteadyRepartition is the end-to-end steady-state cycle:
// a long-lived engine repartitions after the assignment is reset to the
// pre-balance state, reusing snapshot, boundary and scratch each time.
func BenchmarkEngine_SteadyRepartition(b *testing.B) {
	f := meshA(b)
	g := f.seq.Steps[0].Graph
	eng := engine.New(g, engine.Options{})
	base := f.base.Clone()
	base.Grow(g.Order())
	a := base.Clone()
	if _, err := eng.Repartition(context.Background(), a); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(a.Part, base.Part)
		if _, err := eng.Repartition(context.Background(), a); err != nil {
			b.Fatal(err)
		}
	}
}

// meshGrowth builds, once, the mesh-B growth sequence of the repo
// benchmark's meshB-grow workload — a ~10166-vertex mesh refined 40 times
// by +40 vertices in a drifting hotspot — and its 32-way RSB start.
var meshGrowth = sync.OnceValues(func() (*mesh.Sequence, []int32) {
	growth := make([]int, 40)
	for i := range growth {
		growth[i] = 40
	}
	seq, err := mesh.GenerateChained(10166, growth, 1994)
	if err != nil {
		panic(err)
	}
	part, err := spectral.RSB(seq.Base, 32, spectral.Options{Seed: 1994})
	if err != nil {
		panic(err)
	}
	return seq, part
})

// followStep edits g in place into the next graph of a chained mesh
// sequence (vertices appended, the edge set reconciled), the way a caller
// holding one long-lived engine follows a growing mesh.
func followStep(b testing.TB, g, to *graph.Graph) {
	b.Helper()
	for g.Order() < to.Order() {
		g.AddVertex(1)
	}
	for _, v := range to.Vertices() {
		for _, u := range slices.Clone(g.Neighbors(v)) {
			if v < u && !to.HasEdge(v, u) {
				if err := g.RemoveEdge(v, u); err != nil {
					b.Fatal(err)
				}
			}
		}
		for _, u := range to.Neighbors(v) {
			if v < u {
				g.AddEdgeIfAbsent(v, u, 1)
			}
		}
	}
}

// BenchmarkEngine_GrowRepartition is the repo benchmark's meshB-grow op
// (a ~10166-vertex mesh growing by +40 vertices per op, P = 32,
// refinement on, one warm engine per 40-op pass) with the
// layering share read off the product's own Stats — the harness's
// layering.layer_ms times a shadow engine's full-depth Layer and cannot
// see what a stage did not layer. layer-µs/op is PhaseTimings.Layer,
// deepened/op the partitions layered to full depth and lp-solves/op the
// balance LPs solved, each summed over the op's stages.
func BenchmarkEngine_GrowRepartition(b *testing.B) {
	if testing.Short() {
		b.Skip("mesh B growth sequence (10k vertices) skipped in -short mode")
	}
	seq, part := meshGrowth()
	var err error
	ctx := context.Background()
	var (
		g             *graph.Graph
		a             *partition.Assignment
		eng           *Engine
		layer         time.Duration
		deepened, lps int
	)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		step := i % len(seq.Steps)
		if step == 0 {
			if eng != nil {
				eng.Close()
			}
			g, a = seq.Base.Clone(), &partition.Assignment{Part: slices.Clone(part), P: 32}
			if eng, err = NewEngine(g, WithRefine()); err != nil {
				b.Fatal(err)
			}
			if _, err := eng.Repartition(ctx, a); err != nil {
				b.Fatal(err)
			}
		}
		followStep(b, g, seq.Steps[step].Graph)
		b.StartTimer()
		st, err := eng.Repartition(ctx, a)
		if err != nil {
			b.Fatal(err)
		}
		layer += st.PhaseTimings.Layer
		for s := range st.StageDeepened {
			deepened += st.StageDeepened[s]
			lps += st.StageLPSolves[s]
		}
	}
	b.ReportMetric(float64(layer.Nanoseconds())/1e3/float64(b.N), "layer-µs/op")
	b.ReportMetric(float64(deepened)/float64(b.N), "deepened/op")
	b.ReportMetric(float64(lps)/float64(b.N), "lp-solves/op")
}

// BenchmarkEngine_CutReport is the repo benchmark's meshB-smalledit op
// reduced to what it consists of: a 16-edit size-preserving burst on mesh
// B (untimed), then one Engine.Cut at P = 32 — the CSR
// patch, the sync of the touched rows and one report summed from the
// stored cut terms. boundary/op is the length of the list a report walks.
func BenchmarkEngine_CutReport(b *testing.B) {
	if testing.Short() {
		b.Skip("mesh B (10k vertices) skipped in -short mode")
	}
	seq, part := meshGrowth()
	g, a := seq.Base.Clone(), &partition.Assignment{Part: slices.Clone(part), P: 32}
	eng := engine.New(g, engine.Options{})
	defer eng.Close()
	rng := rand.New(rand.NewSource(1994))
	boundary := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for k := 0; k < 16; k++ {
			v := graph.Vertex(rng.Intn(g.Order()))
			if k%3 == 0 || g.Degree(v) == 0 {
				g.SetVertexWeight(v, 1+rng.Float64())
				continue
			}
			u := g.Neighbors(v)[rng.Intn(g.Degree(v))]
			w, _ := g.EdgeWeight(v, u)
			_ = g.RemoveEdge(v, u)
			_ = g.AddEdge(v, u, w)
		}
		b.StartTimer()
		cutSink = eng.Cut(a)
		b.StopTimer()
		boundary += len(eng.Boundary(a))
	}
	b.ReportMetric(float64(boundary)/float64(b.N), "boundary/op")
}

var cutSink partition.CutStats

// BenchmarkPhase_BalanceLP is the production balance solve: the default
// solver's session, as the engine holds it (warm: 0 allocs/op). Through
// BENCH_20 this row timed a throwaway tableau solver production never ran;
// it is not comparable across that line.
func BenchmarkPhase_BalanceLP(b *testing.B) {
	prob := balanceLP(b)
	s := lp.Session(lp.Default())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Solve(context.Background(), prob); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Workload generation (Figures 10/12/13) -----------------------------------

func BenchmarkMeshGen(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := mesh.PaperSequenceA(int64(i + 1)); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Scaling characteristics ---------------------------------------------------

// benchLayerAt measures layering cost at a given mesh size (it is the
// phase whose cost scales with |V|+|E|, unlike the LP).
func benchLayerAt(b *testing.B, n int) {
	seq, err := mesh.GenerateChained(n, []int{n / 50}, 7)
	if err != nil {
		b.Fatal(err)
	}
	part, err := spectral.RSB(seq.Base, 32, spectral.Options{Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	a := &partition.Assignment{Part: part, P: 32}
	g := seq.Steps[0].Graph
	if _, _, err := engine.Assign(g, a); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := layering.Layer(g, a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLayer_1k(b *testing.B) { benchLayerAt(b, 1000) }
func BenchmarkLayer_4k(b *testing.B) { benchLayerAt(b, 4000) }

func BenchmarkRSB_1k(b *testing.B) {
	seq, err := mesh.GenerateChained(1000, []int{10}, 7)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := spectral.RSB(seq.Base, 32, spectral.Options{Seed: 7}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMeshInsert(b *testing.B) {
	gen, err := mesh.NewGenerator(2000, 7)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gen.RefineDisk(geom.Point{X: 0.5, Y: 0.5}, 0.25, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBatched measures the paper's batched-addition fallback.
func BenchmarkBatched(b *testing.B) {
	f := meshA(b)
	g := f.seq.Steps[3].Graph // largest chained step
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := f.base.Clone()
		if _, err := Repartition(context.Background(), g, a, WithBatches(4)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGraphOps measures the mutable-graph primitives under churn.
func BenchmarkGraphOps(b *testing.B) {
	g := graph.Grid(50, 50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := g.AddVertex(1)
		_ = g.AddEdge(v, graph.Vertex(i%2500), 1)
		_ = g.RemoveVertex(v)
	}
}

// BenchmarkEngine_SmallDeltaRepartition measures the warm engine
// absorbing a one-edge delta per call: the journal-driven CSR patch,
// the incremental boundary/size sync and the boundary-seeded cut
// reports make this edit-proportional rather than O(n+m).
func BenchmarkEngine_SmallDeltaRepartition(b *testing.B) {
	f := meshA(b)
	g := f.seq.Steps[0].Graph
	eng := engine.New(g, engine.Options{})
	a := f.base.Clone()
	a.Grow(g.Order())
	if _, err := eng.Repartition(context.Background(), a); err != nil {
		b.Fatal(err)
	}
	u, v := Vertex(0), Vertex(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if g.HasEdge(u, v) {
			if err := g.RemoveEdge(u, v); err != nil {
				b.Fatal(err)
			}
		} else {
			if err := g.AddEdge(u, v, 1); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := eng.Repartition(context.Background(), a); err != nil {
			b.Fatal(err)
		}
	}
}
