package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/balance"
	"repro/internal/cancel"
	"repro/internal/graph"
	"repro/internal/layering"
	"repro/internal/lp"
	"repro/internal/partition"
	"repro/internal/refine"
	"repro/internal/spectral"
)

// editableGraph builds a connected random geometric graph with an RSB
// partition — irregular enough to exercise every boundary shape.
func editableGraph(t testing.TB, n, p int, seed int64) (*graph.Graph, *partition.Assignment) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g, _ := graph.RandomGeometric(n, 0.08, rng)
	graph.EnsureConnected(g)
	part, err := spectral.RSB(g, p, spectral.Options{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return g, &partition.Assignment{Part: part, P: p}
}

// randomEdit applies one random structural or assignment edit; it returns
// false when the pick was a no-op (e.g. duplicate edge).
func randomEdit(g *graph.Graph, a *partition.Assignment, rng *rand.Rand) {
	switch rng.Intn(6) {
	case 0: // add a vertex hooked to an existing one
		v := g.AddVertex(1)
		a.Grow(g.Order())
		for tries := 0; tries < 10; tries++ {
			u := graph.Vertex(rng.Intn(g.Order()))
			if g.Alive(u) && u != v {
				_ = g.AddEdge(v, u, 1)
				a.Part[v] = a.Part[u]
				return
			}
		}
		a.Part[v] = 0
	case 1: // add an edge
		u := graph.Vertex(rng.Intn(g.Order()))
		v := graph.Vertex(rng.Intn(g.Order()))
		g.AddEdgeIfAbsent(u, v, 1)
	case 2: // remove an edge
		u := graph.Vertex(rng.Intn(g.Order()))
		if g.Alive(u) && g.Degree(u) > 1 {
			v := g.Neighbors(u)[rng.Intn(g.Degree(u))]
			_ = g.RemoveEdge(u, v)
		}
	case 3: // remove a vertex
		v := graph.Vertex(rng.Intn(g.Order()))
		if g.Alive(v) && g.NumVertices() > 8 {
			_ = g.RemoveVertex(v)
			a.Part[v] = partition.Unassigned
		}
	default: // move a vertex to another partition
		v := graph.Vertex(rng.Intn(g.Order()))
		if g.Alive(v) {
			a.Part[v] = int32(rng.Intn(a.P))
		}
	}
}

// fractionalWeights re-weighs every edge of g to a random non-integer, so
// cut sums stress float equality: a different summation order shows.
func fractionalWeights(g *graph.Graph, rng *rand.Rand) {
	for v := 0; v < g.Order(); v++ {
		for _, u := range append([]graph.Vertex(nil), g.Neighbors(graph.Vertex(v))...) {
			if graph.Vertex(v) < u {
				_ = g.RemoveEdge(graph.Vertex(v), u)
				_ = g.AddEdge(graph.Vertex(v), u, 0.1+rng.Float64())
			}
		}
	}
}

// requireTrackedCut asserts, after a sync, everything the engine tracks
// for the cut: the boundary list is the brute-force set, every listed
// vertex's stored term equals a fresh scan of its row in the graph, and
// the report equals the partition.Cut oracle bit for bit.
func requireTrackedCut(t testing.TB, ctx string, e *Engine, g *graph.Graph, a *partition.Assignment) {
	t.Helper()
	bnd := e.Boundary(a)
	requireSameBoundary(t, bnd, bruteBoundary(g, a))
	for _, v := range bnd {
		ext, n, ws := 0.0, int32(0), g.EdgeWeights(v)
		for i, u := range g.Neighbors(v) {
			if a.Part[v] >= 0 && a.Part[u] >= 0 && a.Part[u] != a.Part[v] {
				ext += ws[i]
				n++
			}
		}
		if e.ext[v] != ext || e.extN[v] != n {
			t.Fatalf("%s: vertex %d stores term (%g, %d), its row scans to (%g, %d)", ctx, v, e.ext[v], e.extN[v], ext, n)
		}
	}
	sameCut(t, ctx, e.Cut(a), partition.Cut(g, a))
}

// bruteBoundary recomputes the boundary set directly from the graph.
func bruteBoundary(g *graph.Graph, a *partition.Assignment) map[graph.Vertex]bool {
	out := map[graph.Vertex]bool{}
	for v := 0; v < g.Order(); v++ {
		if !g.Alive(graph.Vertex(v)) {
			continue
		}
		for _, u := range g.Neighbors(graph.Vertex(v)) {
			if a.Part[u] != a.Part[graph.Vertex(v)] {
				out[graph.Vertex(v)] = true
				break
			}
		}
	}
	return out
}

// TestBoundaryTrackerExact drives the incremental tracker through random
// edit sequences and checks it against a brute-force recomputation after
// every sync.
func TestBoundaryTrackerExact(t *testing.T) {
	g, a := editableGraph(t, 300, 6, 42)
	e := New(g, Options{})
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 200; iter++ {
		for k := 0; k < rng.Intn(4); k++ {
			randomEdit(g, a, rng)
		}
		requireSameBoundary(t, e.Boundary(a), bruteBoundary(g, a))
	}
}

// TestBoundaryTrackerJournalOverflow forces journal overflow (many more
// touches than the journal holds) and checks the tracker falls back to an
// exact rebuild.
func TestBoundaryTrackerJournalOverflow(t *testing.T) {
	g, a := editableGraph(t, 200, 4, 3)
	e := New(g, Options{})
	_ = e.Boundary(a)
	// Touch far more than the journal bound.
	for i := 0; i < 40000; i++ {
		v := graph.Vertex(i % g.Order())
		if g.Alive(v) {
			g.SetVertexWeight(v, 1)
		}
	}
	requireSameBoundary(t, e.Boundary(a), bruteBoundary(g, a))
}

// TestSeededLayerEquivalence checks the acceptance criterion: across
// randomized edit sequences, the engine's boundary-seeded layering is
// byte-identical (Label, Level, Delta, pools) to the one-shot full-scan
// layering.
func TestSeededLayerEquivalence(t *testing.T) {
	g, a := editableGraph(t, 400, 8, 11)
	e := New(g, Options{})
	rng := rand.New(rand.NewSource(13))
	for iter := 0; iter < 120; iter++ {
		got, err := e.Layer(context.Background(), a)
		if err != nil {
			t.Fatalf("iter %d: engine layer: %v", iter, err)
		}
		want, err := layering.Layer(g, a)
		if err != nil {
			t.Fatalf("iter %d: full layer: %v", iter, err)
		}
		if !reflect.DeepEqual(got.Label, want.Label) {
			t.Fatalf("iter %d: Label diverges", iter)
		}
		if !reflect.DeepEqual(got.Level, want.Level) {
			t.Fatalf("iter %d: Level diverges", iter)
		}
		if !reflect.DeepEqual(got.Delta, want.Delta) {
			t.Fatalf("iter %d: Delta diverges", iter)
		}
		for i := 0; i < a.P; i++ {
			for j := 0; j < a.P; j++ {
				gp, wp := got.Pool(int32(i), int32(j)), want.Pool(int32(i), int32(j))
				if len(gp) != len(wp) {
					t.Fatalf("iter %d: pool(%d,%d) length diverges", iter, i, j)
				}
				for k := range gp {
					if gp[k] != wp[k] {
						t.Fatalf("iter %d: pool(%d,%d)[%d] = %d, want %d", iter, i, j, k, gp[k], wp[k])
					}
				}
			}
		}
		if err := got.Validate(g, a); err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		for k := 0; k < 1+rng.Intn(5); k++ {
			randomEdit(g, a, rng)
		}
	}
}

// TestSeededGainsEquivalence checks the boundary-seeded gains kernel
// against the full scan across randomized edits.
func TestSeededGainsEquivalence(t *testing.T) {
	g, a := editableGraph(t, 400, 8, 19)
	e := New(g, Options{})
	rng := rand.New(rand.NewSource(23))
	for iter := 0; iter < 120; iter++ {
		strict := iter%2 == 0
		got, err := e.Gains(a, strict)
		if err != nil {
			t.Fatalf("iter %d: engine gains: %v", iter, err)
		}
		want, err := refine.Gains(g, a, strict)
		if err != nil {
			t.Fatalf("iter %d: full gains: %v", iter, err)
		}
		if !reflect.DeepEqual(got.B, want.B) {
			t.Fatalf("iter %d: B diverges", iter)
		}
		if !reflect.DeepEqual(got.Gain, want.Gain) {
			t.Fatalf("iter %d: Gain diverges", iter)
		}
		for i := 0; i < a.P; i++ {
			for j := 0; j < a.P; j++ {
				gp, wp := got.Pool(int32(i), int32(j)), want.Pool(int32(i), int32(j))
				if len(gp) != len(wp) {
					t.Fatalf("iter %d: pool(%d,%d) length diverges", iter, i, j)
				}
				for k := range gp {
					if gp[k] != wp[k] {
						t.Fatalf("iter %d: pool(%d,%d)[%d] diverges", iter, i, j, k)
					}
				}
			}
		}
		for k := 0; k < 1+rng.Intn(5); k++ {
			randomEdit(g, a, rng)
		}
	}
}

// TestGainsSeededDuplicateSeeds feeds the seeded gains kernel a seed list
// with every vertex repeated and requires the same candidates as the full
// scan — duplicates must not double-bucket a vertex.
func TestGainsSeededDuplicateSeeds(t *testing.T) {
	g, a := editableGraph(t, 200, 5, 51)
	csr := g.ToCSR()
	seeds := append(g.Vertices(), g.Vertices()...)
	var s refine.Scratch
	got, err := s.GainsSeeded(csr, a, false, seeds)
	if err != nil {
		t.Fatal(err)
	}
	want, err := refine.Gains(g, a, false)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.B, want.B) {
		t.Fatal("duplicate seeds changed the candidate counts")
	}
	for i := 0; i < a.P; i++ {
		for j := 0; j < a.P; j++ {
			gp, wp := got.Pool(int32(i), int32(j)), want.Pool(int32(i), int32(j))
			if len(gp) != len(wp) {
				t.Fatalf("pool(%d,%d) length diverges with duplicate seeds", i, j)
			}
		}
	}
}

// TestEngineRepartitionMatchesOneShot runs the same edit sequence through
// one long-lived engine and through fresh one-shot engines, requiring
// identical assignments — the engine's persistence must be purely a
// performance property.
func TestEngineRepartitionMatchesOneShot(t *testing.T) {
	gA, aA := editableGraph(t, 300, 6, 31)
	gB := gA.Clone()
	aB := aA.Clone()
	e := New(gA, Options{Refine: true})
	rngA := rand.New(rand.NewSource(37))
	rngB := rand.New(rand.NewSource(37))
	for step := 0; step < 6; step++ {
		for k := 0; k < 10; k++ {
			randomEdit(gA, aA, rngA)
			randomEdit(gB, aB, rngB)
		}
		// Drop the random moves: Repartition expects a valid (or Unassigned)
		// partition per live vertex, which randomEdit preserves.
		stA, errA := e.Repartition(context.Background(), aA)
		stB, errB := New(gB, Options{Refine: true}).Repartition(context.Background(), aB)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("step %d: error mismatch: %v vs %v", step, errA, errB)
		}
		if errA != nil {
			t.Skipf("step %d: repartition infeasible on this sequence: %v", step, errA)
		}
		if !reflect.DeepEqual(aA.Part, aB.Part) {
			t.Fatalf("step %d: long-lived engine diverges from one-shot", step)
		}
		if stA.BalanceMoved != stB.BalanceMoved || stA.Stages != stB.Stages {
			t.Fatalf("step %d: stats diverge: moved %d/%d stages %d/%d",
				step, stA.BalanceMoved, stB.BalanceMoved, stA.Stages, stB.Stages)
		}
	}
}

// atAllocProcs runs body as a subtest on a warm-able engine at each
// explicit worker count the steady-state allocation locks cover: one
// shard inline and a forked group. Options{} would resolve to the host's
// core count and leave it to the machine which of the two a test locks.
func atAllocProcs(t *testing.T, body func(t *testing.T, g *graph.Graph, a *partition.Assignment, e *Engine)) {
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			g, a := editableGraph(t, 500, 8, 5)
			body(t, g, a, New(g, Options{Parallelism: procs}))
		})
	}
}

// TestSteadyStateLayerAllocs is the allocation regression: layering an
// unchanged graph through a warm engine must not allocate — per-worker
// scratch lives in the engine's arenas and goroutines are spawned
// through pre-built thunks.
func TestSteadyStateLayerAllocs(t *testing.T) {
	atAllocProcs(t, func(t *testing.T, _ *graph.Graph, a *partition.Assignment, e *Engine) {
		if _, err := e.Layer(context.Background(), a); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := e.Layer(context.Background(), a); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 0 {
			t.Fatalf("steady-state Layer allocates %.1f objects/op, want 0", allocs)
		}
	})
}

// TestSteadyStateGainsAllocs: gain scans on an unchanged graph through a
// warm engine must not allocate.
func TestSteadyStateGainsAllocs(t *testing.T) {
	atAllocProcs(t, func(t *testing.T, _ *graph.Graph, a *partition.Assignment, e *Engine) {
		if _, err := e.Gains(a, false); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := e.Gains(a, false); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 0 {
			t.Fatalf("steady-state Gains allocates %.1f objects/op, want 0", allocs)
		}
	})
}

// TestSteadyStatePatchedRoundAllocs: the patched path — a sync that
// re-examines and reclassifies what 32 pairwise partition swaps touched,
// then Gains patching the pools from the class log (the loop of
// BenchmarkPhase_GainsPatched) — must not allocate once warm.
func TestSteadyStatePatchedRoundAllocs(t *testing.T) {
	atAllocProcs(t, func(t *testing.T, _ *graph.Graph, a *partition.Assignment, e *Engine) {
		boundary := append([]graph.Vertex(nil), e.Boundary(a)...)
		i := 0
		round := func() {
			for k := 0; k < 32; k++ { // sizes stay put
				u, v := boundary[(i*64+2*k)%len(boundary)], boundary[(i*64+2*k+1)%len(boundary)]
				a.Part[u], a.Part[v] = a.Part[v], a.Part[u]
			}
			i++
			if _, err := e.Gains(a, false); err != nil {
				t.Fatal(err)
			}
		}
		for range 50 {
			round()
		}
		if !e.gainsValid {
			t.Fatal("the rounds did not keep the pools patchable")
		}
		if allocs := testing.AllocsPerRun(50, round); allocs > 0 {
			t.Fatalf("steady-state patched round allocates %.1f objects/op, want 0", allocs)
		}
	})
}

// TestSteadyStateSmallEditAllocs: after a small edit, the engine resyncs
// incrementally; the whole Layer call (sync + kernel) must stay within a
// small constant allocation budget (the CSR refresh reuses its arrays).
func TestSteadyStateSmallEditAllocs(t *testing.T) {
	atAllocProcs(t, func(t *testing.T, g *graph.Graph, a *partition.Assignment, e *Engine) {
		if _, err := e.Layer(context.Background(), a); err != nil {
			t.Fatal(err)
		}
		u, v := graph.Vertex(0), graph.Vertex(1)
		allocs := testing.AllocsPerRun(20, func() {
			// Flip one edge back and forth: a two-touch journal entry per run.
			if g.HasEdge(u, v) {
				_ = g.RemoveEdge(u, v)
			} else {
				_ = g.AddEdge(u, v, 1)
			}
			if _, err := e.Layer(context.Background(), a); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 4 {
			t.Fatalf("small-edit Layer allocates %.1f objects/op, want ≤ 4", allocs)
		}
	})
}

// TestSteadyStateBalanceFormulateAllocs locks the arena-backed balance
// LP formulation at zero steady-state allocation through a warm engine,
// alongside the layering/gains alloc locks above.
func TestSteadyStateBalanceFormulateAllocs(t *testing.T) {
	g, a := editableGraph(t, 500, 8, 5)
	e := New(g, Options{})
	lay, err := e.Layer(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	sizes := a.Sizes(g)
	targets := partition.Targets(g.NumVertices(), a.P)
	if _, err := e.balArena.FormulateTol(lay.Delta, sizes, targets, 1, 0); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := e.balArena.FormulateTol(lay.Delta, sizes, targets, 1, 0); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("steady-state balance formulation allocates %.1f objects/op, want 0", allocs)
	}
}

// TestSteadyStateRefineFormulateAllocs locks the arena-backed
// refinement LP formulation at zero steady-state allocation through a
// warm engine.
func TestSteadyStateRefineFormulateAllocs(t *testing.T) {
	g, a := editableGraph(t, 500, 8, 5)
	e := New(g, Options{})
	cands, err := e.Gains(a, false)
	if err != nil {
		t.Fatal(err)
	}
	e.refArena.Formulate(cands)
	allocs := testing.AllocsPerRun(20, func() {
		e.refArena.Formulate(cands)
	})
	if allocs > 0 {
		t.Fatalf("steady-state refine formulation allocates %.1f objects/op, want 0", allocs)
	}
}

// sessionFake is a test-local lp.SessionSolver: a template counts its
// NewSession calls and every fork remembers its template and carries
// the template's configuration.
type sessionFake struct {
	tag      int // configuration a fork must keep
	forks    int // NewSession calls on this template
	template *sessionFake
}

func (s *sessionFake) Name() string { return "session-fake" }

func (s *sessionFake) NewSession() lp.Solver {
	s.forks++
	return &sessionFake{tag: s.tag, template: s}
}

func (s *sessionFake) Solve(ctx context.Context, p *lp.Problem) (*lp.Solution, error) {
	return lp.Network{}.Solve(ctx, p)
}

// TestEngineForksSessionSolvers: New must give each engine a private
// instance of a session solver (its state lives and dies with the
// engine), and share that one session between the balance and refine
// phases when they use the same solver.
func TestEngineForksSessionSolvers(t *testing.T) {
	template := &sessionFake{}
	g1, _ := editableGraph(t, 100, 4, 3)
	g2, _ := editableGraph(t, 100, 4, 4)
	e1 := New(g1, Options{Solver: template, Refine: true})
	e2 := New(g2, Options{Solver: template, Refine: true})
	s1, ok := e1.opt.Solver.(*sessionFake)
	if !ok {
		t.Fatalf("engine solver is %T, want *sessionFake", e1.opt.Solver)
	}
	if s1 == template || s1.template != template {
		t.Fatal("engine did not fork the session solver")
	}
	if e1.opt.Solver == e2.opt.Solver {
		t.Fatal("two engines share one solver session")
	}
	if e1.opt.RefineOptions.Solver != e1.opt.Solver {
		t.Fatal("refine phase does not share the engine's solver session")
	}
	if template.forks != 2 {
		t.Fatalf("template forked %d sessions for two engines, want one each", template.forks)
	}
	// A distinct refine solver must be sessionized separately — forked,
	// not passed through, and not replaced by the balance session — even
	// one sharing the balance solver's type: only the *identical instance*
	// shares a session, so a differently configured refine solver keeps
	// its own fork (with its own configuration).
	tuned := &sessionFake{tag: 1234}
	e5 := New(g1, Options{Solver: template, Refine: true,
		RefineOptions: refine.Options{Solver: tuned}})
	rf, ok := e5.opt.RefineOptions.Solver.(*sessionFake)
	if !ok || rf == e5.opt.Solver.(*sessionFake) || rf.template != tuned || tuned.forks != 1 {
		t.Fatal("same-type refine solver was passed through or collapsed into the balance session")
	}
	if rf.tag != 1234 {
		t.Fatalf("refine session lost its configuration: tag %d, want 1234", rf.tag)
	}
	// Stateless solvers pass through untouched.
	e4 := New(g1, Options{Solver: lp.Dense{}})
	if e4.opt.Solver != (lp.Dense{}) {
		t.Fatalf("stateless solver was wrapped: %T", e4.opt.Solver)
	}
}

// randomGrowthEdit applies one random edit biased toward phase-1 work:
// new vertices are left Unassigned (where randomEdit assigns them), and
// existing vertices are sometimes explicitly unassigned — exactly the
// deltas the delta-aware assign must absorb.
func randomGrowthEdit(g *graph.Graph, a *partition.Assignment, rng *rand.Rand) {
	switch rng.Intn(6) {
	case 0, 1: // add an unassigned vertex hooked to an existing one
		v := g.AddVertex(1)
		a.Grow(g.Order())
		for tries := 0; tries < 10; tries++ {
			u := graph.Vertex(rng.Intn(g.Order()))
			if g.Alive(u) && u != v {
				_ = g.AddEdge(v, u, 1)
				return
			}
		}
	case 2: // add an isolated unassigned vertex (future orphan cluster)
		g.AddVertex(1)
		a.Grow(g.Order())
	case 3: // unassign an existing vertex
		v := graph.Vertex(rng.Intn(g.Order()))
		if g.Alive(v) {
			a.Part[v] = partition.Unassigned
		}
	case 4: // remove a vertex
		v := graph.Vertex(rng.Intn(g.Order()))
		if g.Alive(v) && g.NumVertices() > 8 {
			_ = g.RemoveVertex(v)
			// Leave the stale assignment behind: the engine must
			// normalize it, exactly as the oracle does.
		}
	default: // add an edge
		u := graph.Vertex(rng.Intn(g.Order()))
		v := graph.Vertex(rng.Intn(g.Order()))
		g.AddEdgeIfAbsent(u, v, 1)
	}
}

// TestAssignMatchesOracle drives the delta-aware phase 1 and the
// one-shot Assign oracle through the same growth-edit sequences and
// requires identical assignments, counts and errors.
func TestAssignMatchesOracle(t *testing.T) {
	for _, procs := range []int{1, 3} {
		gE, aE := editableGraph(t, 300, 6, 71)
		gO := gE.Clone()
		aO := aE.Clone()
		e := New(gE, Options{Parallelism: procs})
		rngE := rand.New(rand.NewSource(73))
		rngO := rand.New(rand.NewSource(73))
		for iter := 0; iter < 80; iter++ {
			edits := rngE.Intn(6)
			if rngO.Intn(6) != edits { // keep the two streams in lockstep
				t.Fatal("rng streams desynchronized")
			}
			for k := 0; k <= edits; k++ {
				randomGrowthEdit(gE, aE, rngE)
				randomGrowthEdit(gO, aO, rngO)
			}
			asgE, fbE, errE := e.assign(aE)
			asgO, fbO, errO := Assign(gO, aO)
			if (errE == nil) != (errO == nil) {
				t.Fatalf("procs=%d iter %d: error mismatch: %v vs %v", procs, iter, errE, errO)
			}
			if asgE != asgO || fbE != fbO {
				t.Fatalf("procs=%d iter %d: counts diverge: assigned %d/%d fallbacks %d/%d",
					procs, iter, asgE, asgO, fbE, fbO)
			}
			if !reflect.DeepEqual(aE.Part, aO.Part) {
				for v := range aE.Part {
					if aE.Part[v] != aO.Part[v] {
						t.Fatalf("procs=%d iter %d: assignment diverges at %d: %d vs %d",
							procs, iter, v, aE.Part[v], aO.Part[v])
					}
				}
			}
		}
	}
}

// sameCut requires two cut reports to agree exactly — floats included,
// which the tracked cut guarantees by performing the oracle's additions
// in the oracle's order.
func sameCut(t testing.TB, ctx string, got, want partition.CutStats) {
	t.Helper()
	if got.Total != want.Total || got.TotalWeight != want.TotalWeight ||
		got.Max != want.Max || got.Min != want.Min {
		t.Fatalf("%s: cut scalars diverge: got {%d %g %g %g} want {%d %g %g %g}",
			ctx, got.Total, got.TotalWeight, got.Max, got.Min,
			want.Total, want.TotalWeight, want.Max, want.Min)
	}
	if len(got.PerPart) != len(want.PerPart) {
		t.Fatalf("%s: PerPart lengths %d vs %d", ctx, len(got.PerPart), len(want.PerPart))
	}
	for q := range got.PerPart {
		if got.PerPart[q] != want.PerPart[q] {
			t.Fatalf("%s: PerPart[%d] = %g, want %g", ctx, q, got.PerPart[q], want.PerPart[q])
		}
	}
}

// TestIncrementalCutExact checks the tracked cut against the brute-force
// partition.Cut oracle across random edit sequences, with fractional edge
// weights so float equality is actually stressed.
func TestIncrementalCutExact(t *testing.T) {
	for _, procs := range []int{1, 4} {
		g, a := editableGraph(t, 350, 7, 83)
		rng := rand.New(rand.NewSource(89))
		fractionalWeights(g, rng)
		e := New(g, Options{Parallelism: procs})
		for iter := 0; iter < 120; iter++ {
			for k := 0; k <= rng.Intn(4); k++ {
				randomEdit(g, a, rng)
			}
			sameCut(t, "incremental vs oracle", e.Cut(a), partition.Cut(g, a))
		}
	}
}

// TestFullRefreshEquivalence runs the same edit + Repartition sequence
// through a default engine and a FullRefresh engine: the escape hatch
// must change nothing but the work done.
func TestFullRefreshEquivalence(t *testing.T) {
	gI, aI := editableGraph(t, 300, 6, 91)
	gF := gI.Clone()
	aF := aI.Clone()
	eI := New(gI, Options{Refine: true})
	eF := New(gF, Options{Refine: true, FullRefresh: true})
	rngI := rand.New(rand.NewSource(97))
	rngF := rand.New(rand.NewSource(97))
	for step := 0; step < 5; step++ {
		for k := 0; k < 8; k++ {
			randomGrowthEdit(gI, aI, rngI)
			randomGrowthEdit(gF, aF, rngF)
		}
		stI, errI := eI.Repartition(context.Background(), aI)
		stF, errF := eF.Repartition(context.Background(), aF)
		if (errI == nil) != (errF == nil) {
			t.Fatalf("step %d: error mismatch: %v vs %v", step, errI, errF)
		}
		if errI != nil {
			t.Skipf("step %d: repartition infeasible on this sequence: %v", step, errI)
		}
		if !reflect.DeepEqual(aI.Part, aF.Part) {
			t.Fatalf("step %d: FullRefresh diverges from incremental", step)
		}
		sameCut(t, "incremental CutAfter vs FullRefresh", stI.CutAfter, stF.CutAfter)
		sameCut(t, "incremental CutBefore vs FullRefresh", stI.CutBefore, stF.CutBefore)
		if stF.CSRPatched != 0 || stF.CutIncremental != 0 || stF.CutReused != 0 {
			t.Fatalf("step %d: FullRefresh reported incremental work: patched=%d cut evaluations=%d reused=%d",
				step, stF.CSRPatched, stF.CutIncremental, stF.CutReused)
		}
		if step > 0 && stI.CSRPatched == 0 {
			t.Fatalf("step %d: warm incremental engine never patched its snapshot", step)
		}
		// CutBefore, refinement's entry report, one per applied round and —
		// when any was applied — the closing one, which is CutAfter.
		want := 2 + stI.RefineRounds
		if stI.RefineRounds > 0 {
			want++
		}
		if stI.CutIncremental == 0 || stI.CutIncremental+stI.CutReused != want {
			t.Fatalf("step %d: an edited call of %d rounds made %d cut evaluations and %d reuses, want ≥ 1 and %d reports",
				step, stI.RefineRounds, stI.CutIncremental, stI.CutReused, want)
		}
	}
}

// TestInCallSyncsFollowTheLog: inside a call the engine is the
// assignment's only writer and logs what it writes, so a warm refining
// call after an 8-edit burst diffs the assignment once — at entry, where
// the caller may have written anything — however many syncs its rounds
// pay, and a call that runs the V-cycle once more after it. A FullRefresh
// engine diffs at every sync, and both leave the same assignment and
// CutAfter at every worker count.
func TestInCallSyncsFollowTheLog(t *testing.T) {
	ctx := context.Background()
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			g, a := burstGrid(64, 64, 4, 0, nil)
			gF, aF := g.Clone(), a.Clone()
			e := New(g, Options{Refine: true, Parallelism: procs})
			eF := New(gF, Options{Refine: true, Parallelism: procs, FullRefresh: true})
			rng := rand.New(rand.NewSource(8))
			rounds := 0
			for call := 0; call < 6; call++ {
				// The burst: on two stripe boundaries, a vertex on either side
				// trades an edge into its own stripe for one across, which makes
				// it a zero-gain candidate — a balanced pair refinement moves.
				for k := 0; call > 0 && k < 2; k++ {
					b := 16 * (1 + rng.Intn(3))
					for _, side := range []int{-1, 1} {
						v := graph.Vertex(64*rng.Intn(64) + b + min(side, 0))
						out, in := graph.Vertex(int(v)-2*side), graph.Vertex(int(v)+side)
						for _, h := range []*graph.Graph{g, gF} {
							h.AddEdgeIfAbsent(v, out, 1)
							_ = h.RemoveEdge(v, in)
						}
					}
				}
				st, err := e.Repartition(ctx, a)
				if err != nil {
					t.Fatal(err)
				}
				stF, err := eF.Repartition(ctx, aF)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(a.Part, aF.Part) {
					t.Fatalf("call %d: the log-fed engine's assignment differs from FullRefresh's", call)
				}
				sameCut(t, "CutAfter vs FullRefresh", st.CutAfter, stF.CutAfter)
				if call > 0 && st.SyncDiffs != 1 {
					t.Fatalf("call %d (%d rounds moving %v): %d assignment diffs, want 1",
						call, st.RefineRounds, st.RoundMoved, st.SyncDiffs)
				}
				rounds += st.RefineRounds
				// FullRefresh syncs in phase 1, before each stage's rim pass and
				// in every Gains call (its cut reports rescan instead).
				gains := len(stF.RoundPivots)
				if stF.RefineStop == "no-candidates" {
					gains++
				}
				if want := 1 + stF.Stages + gains; stF.SyncDiffs != want {
					t.Fatalf("call %d: FullRefresh diffed at %d syncs, want all %d", call, stF.SyncDiffs, want)
				}
			}
			if rounds == 0 {
				t.Fatal("no call refined: the log carried no round")
			}
		})
	}
	t.Run("vcycle", func(t *testing.T) {
		g, a := grownGrid(64, 64, 4, 40, 1)
		e := New(g, Options{Multilevel: MultilevelOptions{Enabled: true}, Parallelism: 1})
		defer e.Close()
		if _, err := e.Repartition(ctx, a); err != nil {
			t.Fatal(err)
		}
		attachVertices(g, a, rand.New(rand.NewSource(2)), 0, 8)
		st, err := e.Repartition(ctx, a)
		if err != nil {
			t.Fatal(err)
		}
		if st.VCycleSkipped || st.SyncDiffs != 2 {
			t.Fatalf("warm growth call: V-cycle skipped %v, %d assignment diffs, want it run and 2", st.VCycleSkipped, st.SyncDiffs)
		}
		requireExactBalance(t, g, a)
	})
}

// TestSteadyStateCutAllocs: a cut evaluation on a warm engine must not
// allocate. A vertex is flipped between runs so every run evaluates — an
// unchanged state would only time the copy of the kept report.
func TestSteadyStateCutAllocs(t *testing.T) {
	atAllocProcs(t, func(t *testing.T, g *graph.Graph, a *partition.Assignment, e *Engine) {
		v := graph.Vertex(0)
		home, away := a.Part[v], (a.Part[v]+1)%int32(a.P)
		flip := func() {
			if a.Part[v] == home {
				a.Part[v] = away
			} else {
				a.Part[v] = home
			}
			_ = e.Cut(a)
		}
		flip()
		flip() // both boundary lists have reached their capacity
		evals := e.cutEvals
		allocs := testing.AllocsPerRun(20, flip)
		if allocs > 0 {
			t.Fatalf("steady-state cut evaluation allocates %.1f objects/op, want 0", allocs)
		}
		if got := e.cutEvals - evals; got < 20 {
			t.Fatalf("%d evaluations over 20 flipped states, want one each", got)
		}
	})
}

// smallEditBurst applies 16 size-preserving edits the way the repo
// benchmark's meshB-smalledit op does: vertex-weight jitter and edge flips
// (remove + re-add at the same weight).
func smallEditBurst(g *graph.Graph, rng *rand.Rand) {
	for i := 0; i < 16; i++ {
		v := graph.Vertex(rng.Intn(g.Order()))
		if i%3 == 0 || g.Degree(v) == 0 {
			g.SetVertexWeight(v, 1+rng.Float64())
			continue
		}
		u := g.Neighbors(v)[rng.Intn(g.Degree(v))]
		w, _ := g.EdgeWeight(v, u)
		_ = g.RemoveEdge(v, u)
		_ = g.AddEdge(v, u, w)
	}
}

// TestCutReportAfterBurstAllocs: absorbing a 16-edit burst and reporting
// the cut — CSR patch, sync of the touched rows, one pass over the
// boundary list — stays on the arenas of a warm engine, and every burst
// is answered by a fresh sum of the stored terms, not by the kept report.
func TestCutReportAfterBurstAllocs(t *testing.T) {
	atAllocProcs(t, func(t *testing.T, g *graph.Graph, a *partition.Assignment, e *Engine) {
		rng := rand.New(rand.NewSource(16))
		burst := func() {
			smallEditBurst(g, rng)
			_ = e.Cut(a)
		}
		burst()
		evals := e.cutEvals
		if allocs := testing.AllocsPerRun(20, burst); allocs > 0 {
			t.Fatalf("a warm cut report after a 16-edit burst allocates %.1f objects/op, want 0", allocs)
		}
		if got := e.cutEvals - evals; got < 20 {
			t.Fatalf("%d evaluations over 20 bursts, want one each", got)
		}
		sameCut(t, "after the bursts", e.Cut(a), partition.Cut(g, a))
	})
}

// TestIdleRepartitionEvaluatesNothing: a Repartition that finds no edit
// and moves no vertex serves both cut reports from the kept one and
// stays on the arenas; one that finds an edit and moves nothing — a
// meshB-smalledit op — evaluates once.
func TestIdleRepartitionEvaluatesNothing(t *testing.T) {
	atAllocProcs(t, func(t *testing.T, g *graph.Graph, a *partition.Assignment, e *Engine) {
		ctx := context.Background()
		if _, err := e.Repartition(ctx, a); err != nil { // balances, and evaluates the result
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			st, err := e.Repartition(ctx, a)
			if err != nil {
				t.Fatal(err)
			}
			if st.BalanceMoved != 0 || st.CutIncremental != 0 || st.CutReused != 2 {
				t.Fatalf("idle call: moved %d, %d evaluations, %d reused; want 0, 0, 2",
					st.BalanceMoved, st.CutIncremental, st.CutReused)
			}
		})
		if allocs > 0 {
			t.Fatalf("idle Repartition allocates %.1f objects/op, want 0", allocs)
		}
		sameCut(t, "idle CutAfter vs oracle", e.stats.CutAfter, partition.Cut(g, a))
		// A size-preserving edit that moves nothing: CutBefore is evaluated
		// (the journaled endpoints were re-examined), CutAfter is its copy.
		u, v := graph.Vertex(0), graph.Vertex(1)
		if g.HasEdge(u, v) {
			_ = g.RemoveEdge(u, v)
		} else {
			_ = g.AddEdge(u, v, 1)
		}
		st, err := e.Repartition(ctx, a)
		if err != nil {
			t.Fatal(err)
		}
		if st.BalanceMoved != 0 || st.CutIncremental != 1 || st.CutReused != 1 {
			t.Fatalf("edited move-free call: moved %d, %d evaluations, %d reused; want 0, 1, 1",
				st.BalanceMoved, st.CutIncremental, st.CutReused)
		}
		sameCut(t, "edited CutAfter vs oracle", st.CutAfter, partition.Cut(g, a))
	})
}

// TestKeptCutInvalidation walks one warm engine through every way the
// state under a kept cut report can change and requires Engine.Cut to
// stay identical to partition.Cut. Every row but the first changes the
// cut, so a report that is wrongly kept fails the comparison; the
// counters say which path answered.
func TestKeptCutInvalidation(t *testing.T) {
	g, a := editableGraph(t, 400, 6, 19)
	e := New(g, Options{Parallelism: 1})
	// A cut edge and an interior vertex to edit around.
	cutEdge := func() (graph.Vertex, graph.Vertex) {
		for _, v := range e.Boundary(a) {
			for _, u := range g.Neighbors(v) {
				if a.Part[u] != a.Part[v] && a.Part[u] >= 0 {
					return v, u
				}
			}
		}
		t.Fatal("no cut edge")
		return 0, 0
	}
	reweigh := func(w float64) {
		v, u := cutEdge()
		if err := g.RemoveEdge(v, u); err != nil {
			t.Fatal(err)
		}
		if err := g.AddEdge(v, u, w); err != nil {
			t.Fatal(err)
		}
	}
	rows := []struct {
		name   string
		change func()
		reused bool
	}{
		{"nothing", func() {}, true},
		{"edge weight only", func() { reweigh(2.75) }, false},
		{"caller flips an interior vertex", func() {
			bnd := bruteBoundary(g, a)
			for v := 0; v < g.Order(); v++ {
				if g.Alive(graph.Vertex(v)) && g.Degree(graph.Vertex(v)) > 0 && !bnd[graph.Vertex(v)] {
					a.Part[v] = (a.Part[v] + 1) % int32(a.P)
					return
				}
			}
			t.Fatal("no interior vertex")
		}, false},
		{"vertex removal", func() {
			v, _ := cutEdge()
			if err := g.RemoveVertex(v); err != nil {
				t.Fatal(err)
			}
			a.Part[v] = partition.Unassigned
		}, false},
		{"growth past the old order", func() {
			v, u := cutEdge()
			w := g.AddVertex(1)
			a.Grow(g.Order())
			a.Part[w] = a.Part[v]
			_ = g.AddEdge(w, v, 1)
			_ = g.AddEdge(w, u, 1.5)
		}, false},
		{"P change", func() { a.P++ }, false},
		{"journal overflow", func() {
			reweigh(0.375) // first: picking the edge syncs
			for i := 0; i < 40000; i++ {
				g.SetVertexWeight(graph.Vertex(i%g.Order()), 1)
			}
		}, false},
	}
	sameCut(t, "warm-up", e.Cut(a), partition.Cut(g, a))
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			before := partition.Cut(g, a)
			row.change()
			want := partition.Cut(g, a)
			if !row.reused && reflect.DeepEqual(before, want) {
				t.Fatal("the change left the cut as it was — the row proves nothing")
			}
			evals, reused := e.cutEvals, e.cutReused
			sameCut(t, "Engine.Cut vs oracle", e.Cut(a), want)
			if gotReuse := e.cutReused > reused; gotReuse != row.reused || e.cutEvals+e.cutReused != evals+reused+1 {
				t.Fatalf("evaluations %d→%d, reuses %d→%d; want reused=%v",
					evals, e.cutEvals, reused, e.cutReused, row.reused)
			}
		})
	}
}

// TestRefineRollbackIsReported: Drive rolls a regressing tail back after
// its last report of the loop — when a cancellation stops it right after
// a regressing round (seeds 17, 18: round 2 and round 1 regress) and when
// a 2-cycle ends the loop (seed 13 ends 49 → 50) — and that write must reach
// the closing report: CutAfter is the oracle's cut of the assignment left
// behind, which is the best one any round produced.
func TestRefineRollbackIsReported(t *testing.T) {
	for _, row := range []struct {
		seed   int64
		cancel bool
	}{{17, true}, {18, true}, {13, false}} {
		g, a := editableGraph(t, 300, 6, row.seed)
		if _, err := New(g, Options{}).Repartition(context.Background(), a); err != nil {
			t.Fatal(err) // balances, so the refined call below starts refining at once
		}
		ctx, stop := context.WithCancel(context.Background())
		best, bestCut, last := append([]int32(nil), a.Part...), partition.Cut(g, a).TotalWeight, 0.0
		e := New(g, Options{Refine: true, RefineOptions: refine.Options{OnRound: func(int, int) {
			last = partition.Cut(g, a).TotalWeight
			if last < bestCut {
				bestCut = last
				copy(best, a.Part)
			} else if last > bestCut && row.cancel {
				stop()
			}
		}}})
		st, err := e.Repartition(ctx, a)
		stop()
		if row.cancel != errors.Is(err, cancel.ErrCanceled) || last <= bestCut {
			t.Fatalf("seed %d: err %v, last round cut %g, best %g: the row no longer regresses", row.seed, err, last, bestCut)
		}
		sameCut(t, "CutAfter of a rolled-back refinement", st.CutAfter, partition.Cut(g, a))
		if st.CutAfter.TotalWeight != bestCut || !reflect.DeepEqual(a.Part, best) {
			t.Fatalf("seed %d: refinement left cut %g, the best round had %g", row.seed, st.CutAfter.TotalWeight, bestCut)
		}
	}
}

// TestStatsClone: Clone detaches every list of Stats from the original —
// the per-stage and per-round lists, WorkerBusy, Levels and both cuts'
// PerPart vectors. The lists are found by reflection, so one added to
// Stats and forgotten in Clone fails here: each is filled, the original is
// cloned and then overwritten, and the clone must keep what it copied.
func TestStatsClone(t *testing.T) {
	var names []string
	lists := func(s *Stats) []reflect.Value {
		var out []reflect.Value
		names = names[:0]
		var walk func(v reflect.Value, path string)
		walk = func(v reflect.Value, path string) {
			for i := range v.NumField() {
				switch f := v.Field(i); f.Kind() {
				case reflect.Slice:
					out = append(out, f)
					names = append(names, path+v.Type().Field(i).Name)
				case reflect.Struct:
					walk(f, path+v.Type().Field(i).Name+".")
				}
			}
		}
		walk(reflect.ValueOf(s).Elem(), "")
		return out
	}
	// scalar is the first number inside a list element.
	scalar := func(e reflect.Value) reflect.Value {
		for e.Kind() == reflect.Struct {
			e = e.Field(0)
		}
		return e
	}
	var st Stats
	orig := lists(&st)
	if len(orig) == 0 {
		t.Fatal("found no list in Stats")
	}
	for i, f := range orig {
		f.Set(reflect.MakeSlice(f.Type(), 1, 1))
		switch e := scalar(f.Index(0)); e.Kind() {
		case reflect.Int, reflect.Int64:
			e.SetInt(7)
		case reflect.Float64:
			e.SetFloat(7)
		default:
			t.Fatalf("no filler for %s, a %v", names[i], f.Type())
		}
	}
	clone := st.Clone()
	if !reflect.DeepEqual(clone, &st) {
		t.Fatal("the clone differs from the original")
	}
	for i, f := range lists(clone) {
		scalar(orig[i].Index(0)).SetZero() // the engine's next call writing its arena
		if f.Len() != 1 || scalar(f.Index(0)).IsZero() {
			t.Errorf("the clone's %s shares the original's array", names[i])
		}
	}
}

// TestPivotCapIsNotInfeasibility: an LP that stops at its pivot cap has
// decided nothing about the partition. It used to be taken for an
// infeasible stage — every partition layered to full depth, ε escalated
// to its bound, ErrNeedRepartition returned ("repartition from scratch")
// for an input the default solver balances in one stage. Only
// lp.Infeasible may escalate ε; a capped solve is balance.ErrUnsolved,
// with the assignment untouched.
func TestPivotCapIsNotInfeasibility(t *testing.T) {
	stripes := func() (*graph.Graph, *partition.Assignment) {
		g := graph.Grid(20, 20)
		a := partition.New(g.Order(), 4)
		for v := range a.Part {
			switch row := v / 20; {
			case row < 8:
				a.Part[v] = 0
			case row < 10:
				a.Part[v] = 1
			case row < 15:
				a.Part[v] = 2
			default:
				a.Part[v] = 3
			}
		}
		return g, a
	}
	g, a := stripes()
	if got, want := a.Sizes(g), []int{160, 40, 100, 100}; !slices.Equal(got, want) {
		t.Fatalf("sizes %v, want %v", got, want)
	}
	st, err := New(g, Options{Parallelism: 1}).Repartition(context.Background(), a)
	if err != nil || st.Stages != 1 || !partition.Balanced(a.Sizes(g)) {
		t.Fatalf("default solver: err %v, stats %+v, sizes %v; want one balancing stage", err, st, a.Sizes(g))
	}

	g, a = stripes()
	before := a.Clone()
	_, err = New(g, Options{Parallelism: 1, Solver: lp.Network{MaxIter: 1}}).Repartition(context.Background(), a)
	if !errors.Is(err, balance.ErrUnsolved) || errors.Is(err, ErrNeedRepartition) {
		t.Fatalf("capped solver: err %v, want balance.ErrUnsolved and not ErrNeedRepartition", err)
	}
	if !slices.Equal(a.Part, before.Part) {
		t.Fatal("capped solver: the assignment changed")
	}
	if err := a.Validate(g); err != nil {
		t.Fatal(err)
	}
}
