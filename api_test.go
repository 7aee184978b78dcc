package igp

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/lp"
	"repro/internal/mesh"
	"repro/internal/partition"
)

// grownMesh builds a mesh with a localized burst of growth severe enough
// that repartitioning needs at least one balancing stage.
func grownMesh(t testing.TB, n, p, growth int, seed int64) (*Graph, *Assignment) {
	t.Helper()
	g, err := NewMeshGraph(n, seed)
	if err != nil {
		t.Fatal(err)
	}
	a, err := PartitionRSB(g, p, seed)
	if err != nil {
		t.Fatal(err)
	}
	prev := []Vertex{0}
	for i := 0; i < growth; i++ {
		v := g.AddVertex(1)
		if err := g.AddEdge(v, prev[len(prev)-1], 1); err != nil {
			t.Fatal(err)
		}
		prev = append(prev, v)
	}
	return g, a
}

// TestCancelMidBalanceLP is the acceptance test for context support: an
// engine session is canceled — with a custom cause — at the instant the
// first balance stage begins, so the abort is observed inside the
// in-flight LP solve. The error must be the typed ErrCanceled wrapping
// the cause, and the assignment must remain fully valid (no mid-move
// corruption).
func TestCancelMidBalanceLP(t *testing.T) {
	g, a := grownMesh(t, 500, 8, 60, 7)
	cause := errors.New("budget blown")
	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)

	var sawBalanceStart atomic.Bool
	var starts, ends atomic.Int64
	eng, err := NewEngine(g,
		WithRefine(),
		// The deliberately slow instance: the paper's dense tableau over a
		// severe localized burst keeps the pivot loop busy long enough that
		// the cancellation must be observed inside Solve, not between
		// phases.
		WithSolver("dense"),
		WithObserver(func(ev Event) {
			switch ev.Kind {
			case EventStart:
				starts.Add(1)
			case EventEnd:
				ends.Add(1)
			}
			if ev.Kind == EventStart && ev.Phase == PhaseBalance {
				sawBalanceStart.Store(true)
				cancel(cause) // fire while the stage's LP is about to pivot
			}
		}))
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	var rerr error
	go func() {
		defer close(done)
		_, rerr = eng.Repartition(ctx, a)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("canceled repartition did not return within bound")
	}

	if !sawBalanceStart.Load() {
		t.Fatal("test instance never reached a balance stage")
	}
	if rerr == nil {
		t.Fatal("canceled repartition returned nil error")
	}
	if !errors.Is(rerr, ErrCanceled) {
		t.Fatalf("error does not match ErrCanceled: %v", rerr)
	}
	// With a custom cause, context.Cause returns the cause itself — the
	// wrapped chain must surface it.
	if !errors.Is(rerr, cause) {
		t.Fatalf("error does not wrap context.Cause: %v", rerr)
	}
	var typed *CanceledError
	if !errors.As(rerr, &typed) {
		t.Fatalf("error is not a *CanceledError: %v", rerr)
	}
	if typed.Op == "" {
		t.Fatalf("CanceledError has no operation: %+v", typed)
	}
	// No partial assignment corruption: every live vertex still carries a
	// valid partition (the abort may leave sizes unbalanced, never a
	// half-applied move).
	if err := a.Validate(g); err != nil {
		t.Fatalf("assignment corrupted by abort: %v", err)
	}
	// Observer spans stay paired even on the abort path.
	if starts.Load() != ends.Load() {
		t.Fatalf("aborted run leaked observer spans: %d starts, %d ends", starts.Load(), ends.Load())
	}
}

// TestCancelExpiredDeadline: an already-expired deadline aborts before
// any work and surfaces context.DeadlineExceeded through the wrapper.
func TestCancelExpiredDeadline(t *testing.T) {
	g, a := grownMesh(t, 300, 4, 20, 3)
	before := a.Clone()
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err := Repartition(ctx, g, a)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded in chain, got %v", err)
	}
	// The abort fired before any phase ran: a must be exactly untouched.
	if len(a.Part) != len(before.Part) {
		t.Fatalf("assignment resized by aborted call: %d → %d", len(before.Part), len(a.Part))
	}
	for v := range a.Part {
		if a.Part[v] != before.Part[v] {
			t.Fatalf("vertex %d moved by aborted call", v)
		}
	}
}

// TestCanceledCallReturnsStats: Stats.Elapsed is set even when a call
// errors, so the public entry points return the engine's Stats with the
// error — the one-shot Repartition, a held Engine and a batched one
// (which fails before its first batch) alike.
func TestCanceledCallReturnsStats(t *testing.T) {
	g, a := grownMesh(t, 300, 4, 20, 3)
	eng, err := NewEngine(g)
	if err != nil {
		t.Fatal(err)
	}
	batched, err := NewEngine(g, WithBatches(4))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	for _, c := range []struct {
		name string
		call func() (*Stats, error)
	}{
		{"Repartition", func() (*Stats, error) { return Repartition(ctx, g, a) }},
		{"Engine.Repartition", func() (*Stats, error) { return eng.Repartition(ctx, a) }},
		{"batched Engine.Repartition", func() (*Stats, error) { return batched.Repartition(ctx, a) }},
	} {
		st, err := c.call()
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("%s: want ErrCanceled, got %v", c.name, err)
		}
		if st == nil || st.Elapsed <= 0 {
			t.Fatalf("%s: errored call returned Stats %+v, want one with Elapsed > 0", c.name, st)
		}
	}
}

// TestEagerOptionValidation: misconfigurations are constructor errors,
// reported by NewEngine (and one-shot Repartition) before any work.
func TestEagerOptionValidation(t *testing.T) {
	g := NewGraphWithVertices(4)
	cases := []struct {
		name string
		opt  Option
	}{
		{"unknown solver", WithSolver("warp-drive")},
		{"zero batches", WithBatches(0)},
		{"negative batches", WithBatches(-2)},
		{"negative tolerance", WithTolerance(-1)},
		{"nil observer", WithObserver(nil)},
		{"nil option", nil},
	}
	for _, tc := range cases {
		if _, err := NewEngine(g, tc.opt); err == nil {
			t.Errorf("%s: NewEngine accepted invalid option", tc.name)
		}
	}
	// Valid configurations still construct.
	if _, err := NewEngine(g,
		WithRefine(), WithBatches(2), WithTolerance(1), WithMultilevel(),
		WithSolver("dense"), WithObserver(func(Event) {})); err != nil {
		t.Fatalf("valid options rejected: %v", err)
	}
}

// TestWithParallelismValidation: the option is a no-op, but worker counts
// below 1 are still constructor errors and valid counts are accepted
// eagerly.
func TestWithParallelismValidation(t *testing.T) {
	g, err := NewMeshGraph(200, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, -1, -100} {
		if _, err := NewEngine(g, WithParallelism(n)); err == nil {
			t.Fatalf("WithParallelism(%d) accepted", n)
		}
	}
	for _, n := range []int{1, 2, 64} {
		if _, err := NewEngine(g, WithParallelism(n)); err != nil {
			t.Fatalf("WithParallelism(%d) rejected: %v", n, err)
		}
	}
}

// TestWithMultilevelVCycle drives the public V-cycle surface end to end:
// a cold multilevel Repartition on a grown mesh must build a hierarchy
// (Stats.Levels populated, Coarsen/Uncoarsen timings plumbed through
// PhaseTimings), a warm call after a small growth batch must run the
// V-cycle over a hierarchy of its own, a call that arrives balanced
// must skip the V-cycle (Stats.VCycleSkipped), and every call must leave
// an exactly balanced assignment.
func TestWithMultilevelVCycle(t *testing.T) {
	g, a := grownMesh(t, 600, 4, 60, 3)
	eng, err := NewEngine(g, WithRefine(), WithMultilevel())
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	balanced := func(st *Stats) {
		t.Helper()
		if err := a.Validate(g); err != nil {
			t.Fatal(err)
		}
		sizes := a.Sizes(g)
		lo, hi := sizes[0], sizes[0]
		for _, s := range sizes[1:] {
			if s < lo {
				lo = s
			}
			if s > hi {
				hi = s
			}
		}
		if hi-lo > 1 {
			t.Fatalf("not exactly balanced: sizes %v", sizes)
		}
	}
	st, err := eng.Repartition(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	balanced(st)
	if len(st.Levels) < 2 {
		t.Fatalf("cold multilevel call reported %d hierarchy levels, want a V-cycle of at least 2", len(st.Levels))
	}
	for l, ls := range st.Levels {
		if ls.Vertices <= 0 {
			t.Fatalf("cold level %d: %+v", l, ls)
		}
	}
	if st.PhaseTimings.Coarsen <= 0 {
		t.Fatal("Coarsen timing not plumbed")
	}
	if st.PhaseTimings.Total() < st.PhaseTimings.Coarsen+st.PhaseTimings.Uncoarsen {
		t.Fatal("PhaseTimings.Total excludes the V-cycle legs")
	}
	prev := Vertex(0)
	for i := 0; i < 6; i++ {
		v := g.AddVertex(1)
		if err := g.AddEdge(v, prev, 1); err != nil {
			t.Fatal(err)
		}
		prev = v
	}
	st, err = eng.Repartition(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	balanced(st)
	if st.VCycleSkipped || len(st.Levels) < 2 {
		t.Fatalf("warm growth call: skipped=%v levels=%d, want a V-cycle", st.VCycleSkipped, len(st.Levels))
	}

	// A call that arrives balanced skips the V-cycle and says so.
	st, err = eng.Repartition(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	balanced(st)
	if !st.VCycleSkipped || len(st.Levels) != 0 || st.PhaseTimings.Coarsen != 0 {
		t.Fatalf("balanced call: skipped=%v levels=%d coarsen=%v",
			st.VCycleSkipped, len(st.Levels), st.PhaseTimings.Coarsen)
	}
}

// TestObserverEventOrdering checks the WithObserver contract: spans are
// properly paired and ordered (assign, then per-stage layer/balance,
// then refine), stage and round numbers count up from 1, and the events'
// measurements agree with the returned Stats — the per-stage lists, the
// cut-vs-round and cost-vs-round curves and the cut report counts.
func TestObserverEventOrdering(t *testing.T) {
	g, a := grownMesh(t, 500, 8, 60, 11)
	var events []Event
	eng, err := NewEngine(g, WithRefine(), WithObserver(func(ev Event) {
		events = append(events, ev)
	}))
	if err != nil {
		t.Fatal(err)
	}
	st, err := eng.Repartition(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) < 4 {
		t.Fatalf("only %d events observed", len(events))
	}
	if events[0].Kind != EventStart || events[0].Phase != PhaseAssign {
		t.Fatalf("first event = %+v, want assign start", events[0])
	}
	if events[1].Kind != EventEnd || events[1].Phase != PhaseAssign {
		t.Fatalf("second event = %+v, want assign end", events[1])
	}
	if events[1].Moved != st.NewAssigned {
		t.Fatalf("assign end reports %d, stats say %d", events[1].Moved, st.NewAssigned)
	}

	var open *Event // currently open span
	stage := 0
	balanceMoved := 0
	balanceEnds := 0
	var epsSeen []float64
	var roundMoved []int
	refineStarted := false
	cutEvals, cutReused := 0, 0
	for i := 2; i < len(events); i++ {
		ev := events[i]
		switch ev.Kind {
		case EventStart:
			if open != nil {
				t.Fatalf("event %d: %v start while %v span open", i, ev.Phase, open.Phase)
			}
			open = &events[i]
			switch ev.Phase {
			case PhaseLayer:
				if refineStarted {
					t.Fatalf("event %d: layer after refine started", i)
				}
				if ev.Stage != stage+1 {
					t.Fatalf("event %d: layer stage %d, want %d", i, ev.Stage, stage+1)
				}
			case PhaseBalance:
				if ev.Stage != stage+1 {
					t.Fatalf("event %d: balance stage %d, want %d", i, ev.Stage, stage+1)
				}
			case PhaseRefine:
				refineStarted = true
			}
		case EventEnd:
			if open == nil || open.Phase != ev.Phase || open.Stage != ev.Stage {
				t.Fatalf("event %d: end %+v does not match open span %+v", i, ev, open)
			}
			open = nil
			if ev.Phase == PhaseBalance {
				stage = ev.Stage
				balanceMoved += ev.Moved
				balanceEnds++
				epsSeen = append(epsSeen, ev.Epsilon)
				if ev.Epsilon < 1 {
					t.Fatalf("event %d: balance ε = %g < 1", i, ev.Epsilon)
				}
			}
		case EventRound:
			if !refineStarted || open == nil || open.Phase != PhaseRefine {
				t.Fatalf("event %d: refine round outside refine span", i)
			}
			if ev.Stage != len(roundMoved)+1 {
				t.Fatalf("event %d: round %d after %d rounds", i, ev.Stage, len(roundMoved))
			}
			roundMoved = append(roundMoved, ev.Moved)
		case EventCut:
			if ev.Reused {
				cutReused++
			} else {
				cutEvals++
			}
		}
	}
	if cutEvals != st.CutIncremental || cutReused != st.CutReused {
		t.Fatalf("cut events: %d evaluated, %d reused; stats say %d, %d",
			cutEvals, cutReused, st.CutIncremental, st.CutReused)
	}
	if open != nil {
		t.Fatalf("span %+v never closed", open)
	}
	if balanceEnds != st.Stages {
		t.Fatalf("%d balance spans, stats say %d stages", balanceEnds, st.Stages)
	}
	if balanceMoved != st.BalanceMoved {
		t.Fatalf("balance events moved %d, stats say %d", balanceMoved, st.BalanceMoved)
	}
	if !slices.Equal(epsSeen, st.EpsilonUsed) {
		t.Fatalf("ε events %v vs stats %v", epsSeen, st.EpsilonUsed)
	}
	// One round event, one cut and one move count per applied round, no
	// round's cut below the one refinement kept, the moves summing to
	// RefineMoved. Round 1 is always loose and at most two are. A refined
	// flat call reports the cut before balancing, on entry to refinement,
	// after every round and once more to close.
	if st.RefineRounds == 0 || !slices.Equal(roundMoved, st.RoundMoved) || len(st.RoundCuts) != st.RefineRounds {
		t.Fatalf("%d refinement rounds: round events moved %v, RoundMoved %v, RoundCuts %v",
			st.RefineRounds, roundMoved, st.RoundMoved, st.RoundCuts)
	}
	moved := 0
	for r, c := range st.RoundCuts {
		if c < st.CutAfter.TotalWeight {
			t.Fatalf("round %d cut %g below the kept cut %g", r+1, c, st.CutAfter.TotalWeight)
		}
		moved += st.RoundMoved[r]
	}
	if moved != st.RefineMoved {
		t.Fatalf("RoundMoved %v sums to %d, RefineMoved %d", st.RoundMoved, moved, st.RefineMoved)
	}
	if st.RefineStop == "" || st.RefineStrictFrom < 1 || st.RefineStrictFrom > min(2, st.RefineRounds) {
		t.Fatalf("refinement stopped %q with %d loose rounds of %d", st.RefineStop, st.RefineStrictFrom, st.RefineRounds)
	}
	if st.CutIncremental < 1 || st.CutIncremental+st.CutReused != st.RefineRounds+3 {
		t.Fatalf("a refined flat call of %d rounds made %d cut evaluations and %d reuses, want %d reports, ≥ 1 evaluated",
			st.RefineRounds, st.CutIncremental, st.CutReused, st.RefineRounds+3)
	}
}

// TestPhaseTimingsSumToElapsed: the per-phase wall-clock breakdown must
// account for the bulk of Elapsed (the remainder is cut bookkeeping and
// snapshot sync), and never exceed it.
func TestPhaseTimingsSumToElapsed(t *testing.T) {
	g, a := grownMesh(t, 2000, 16, 150, 13)
	st, err := Repartition(context.Background(), g, a, WithRefine())
	if err != nil {
		t.Fatal(err)
	}
	total := st.PhaseTimings.Total()
	if total <= 0 {
		t.Fatalf("no phase timings recorded: %+v", st.PhaseTimings)
	}
	if st.Elapsed <= 0 {
		t.Fatalf("no elapsed recorded: %+v", st)
	}
	// Allow a sliver of clock skew, but phases are sub-spans of Elapsed.
	if total > st.Elapsed+time.Millisecond {
		t.Fatalf("phases (%v) exceed elapsed (%v)", total, st.Elapsed)
	}
	if total < st.Elapsed/4 {
		t.Fatalf("phases (%v) cover under a quarter of elapsed (%v)", total, st.Elapsed)
	}
}

// countingSolver wraps the network simplex, counting solves and the
// shapes of the problems it is handed.
type countingSolver struct{ *lpRecord }

// lpRecord counts solves, problems with a row that is not an equality,
// and problems with zero-cost columns (a tolerance's slack arcs).
type lpRecord struct{ calls, notEQ, ranged atomic.Int64 }

func (s countingSolver) Name() string { return "test-counting" }

func (s countingSolver) Solve(ctx context.Context, p *lp.Problem) (*lp.Solution, error) {
	s.calls.Add(1)
	if slices.ContainsFunc(p.Cons, func(c lp.Constraint) bool { return c.Rel != lp.EQ }) {
		s.notEQ.Add(1)
	}
	if slices.Contains(p.Obj, 0) {
		s.ranged.Add(1)
	}
	return lp.Network{}.Solve(ctx, p)
}

var counted lpRecord

// withCountingSolver injects countingSolver into the engine's solver
// slot, the place WithSolver fills.
func withCountingSolver() Option {
	return func(c *config) error {
		c.Solver = countingSolver{&counted}
		return nil
	}
}

// TestConvertStatsSteadyStateAllocs: the public Stats is the engine's
// own record, so nothing is converted on the way out — a warm public
// Engine's idle Repartition stays on the engine's arenas, its Stats
// included.
func TestConvertStatsSteadyStateAllocs(t *testing.T) {
	g, a := grownMesh(t, 500, 8, 40, 23)
	eng, err := NewEngine(g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Repartition(context.Background(), a); err != nil { // balances
		t.Fatal(err)
	}
	var st *Stats
	allocs := testing.AllocsPerRun(20, func() {
		if st, err = eng.Repartition(context.Background(), a); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("a warm idle public Repartition allocates %.1f objects/op, want 0", allocs)
	}
	if st.CutReused != 2 || st.PhaseTimings.Total() > st.Elapsed {
		t.Fatalf("idle call reported %+v", st)
	}
}

// TestEngineStatsArenaReuse documents the ownership contract: the Stats
// returned by an Engine is overwritten by the next call.
func TestEngineStatsArenaReuse(t *testing.T) {
	g, a := grownMesh(t, 300, 4, 20, 19)
	eng, err := NewEngine(g)
	if err != nil {
		t.Fatal(err)
	}
	st1, err := eng.Repartition(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	first := *st1
	st2, err := eng.Repartition(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	if st1 != st2 {
		t.Fatal("engine stats arena not reused")
	}
	_ = first
	if st2.NewAssigned != 0 {
		t.Fatalf("second pass assigned %d, want 0", st2.NewAssigned)
	}
}

// ExampleWithObserver shows the event stream's shape.
func ExampleWithObserver() {
	g := NewGraphWithVertices(8)
	for i := 0; i < 7; i++ {
		_ = g.AddEdge(Vertex(i), Vertex(i+1), 1)
	}
	a := &Assignment{Part: []int32{0, 0, 0, 0, 1, 1, 1, 1}, P: 2}
	for i := 0; i < 4; i++ {
		v := g.AddVertex(1)
		_ = g.AddEdge(v, 0, 1)
	}
	_, err := Repartition(context.Background(), g, a,
		WithObserver(func(ev Event) {
			if ev.Kind == EventEnd && ev.Phase == PhaseBalance {
				fmt.Printf("stage %d: ε=%g moved=%d\n", ev.Stage, ev.Epsilon, ev.Moved)
			}
		}))
	if err != nil {
		fmt.Println("error:", err)
	}
	// Output:
	// stage 1: ε=1 moved=2
}

// TestPublicStatsClone: the clone of a public Engine's Stats must
// deep-copy every arena-backed field and survive the engine's next call.
// The round curves it copies are checked in TestObserverEventOrdering.
func TestPublicStatsClone(t *testing.T) {
	g, a := grownMesh(t, 300, 4, 20, 29)
	eng, err := NewEngine(g, WithRefine())
	if err != nil {
		t.Fatal(err)
	}
	st, err := eng.Repartition(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	if st.RefineRounds == 0 || len(st.RoundCuts) != st.RefineRounds || len(st.RoundMoved) != st.RefineRounds {
		t.Fatalf("%d refinement rounds, RoundCuts %v, RoundMoved %v", st.RefineRounds, st.RoundCuts, st.RoundMoved)
	}
	clone := st.Clone()
	eps := append([]float64(nil), clone.EpsilonUsed...)
	roundCuts := append([]float64(nil), clone.RoundCuts...)
	roundMoved := append([]int(nil), clone.RoundMoved...)
	perPart := append([]float64(nil), clone.CutAfter.PerPart...)
	cutAfter := clone.CutAfter.Total
	if clone.RefineStop != st.RefineStop || clone.RefineStrictFrom != st.RefineStrictFrom {
		t.Fatal("clone dropped the refinement stop reason")
	}
	// Overwrite the arena with a warm second call.
	v := g.AddVertex(1)
	if err := g.AddEdge(v, 0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Repartition(context.Background(), a); err != nil {
		t.Fatal(err)
	}
	if clone.CutAfter.Total != cutAfter {
		t.Fatal("clone scalar overwritten by the next call")
	}
	if fmt.Sprint(clone.EpsilonUsed) != fmt.Sprint(eps) {
		t.Fatal("clone EpsilonUsed overwritten by the next call")
	}
	if fmt.Sprint(clone.CutAfter.PerPart) != fmt.Sprint(perPart) {
		t.Fatal("clone PerPart overwritten by the next call")
	}
	if fmt.Sprint(clone.RoundCuts) != fmt.Sprint(roundCuts) || fmt.Sprint(clone.RoundMoved) != fmt.Sprint(roundMoved) {
		t.Fatal("clone RoundCuts / RoundMoved overwritten by the next call")
	}
}

// TestStageCountersExplainTheStage: Stats and the balance end events say
// why each stage cost what it did — how many partitions it layered to
// full depth, how many LPs it solved and how many tight bounds its
// reduced costs let stand — and agree with each other; the
// layering share covers the rim pass and the deepening, so the phases
// still sum to no more than the call. A kept bound belongs to a
// partition the stage left unfinished. The burst's rim LP is infeasible,
// so its stages finish everything and keep nothing; the mesh step's
// stage finishes one partition on a bound its optimum binds and accepts
// with two degenerate-tight bounds standing, each of which the
// flow == bound rule would have finished.
func TestStageCountersExplainTheStage(t *testing.T) {
	burst, burstA := grownMesh(t, 500, 8, 60, 11)
	seq, err := mesh.GenerateChained(400, []int{30}, 3)
	if err != nil {
		t.Fatal(err)
	}
	stepA, err := PartitionRSB(seq.Base, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	step := seq.Steps[0].Graph
	for len(stepA.Part) < step.Order() {
		stepA.Part = append(stepA.Part, partition.Unassigned)
	}
	for _, tc := range []struct {
		name           string
		g              *Graph
		a              *Assignment
		deepened, kept int  // over the call
		deepensSome    bool // some stage finishes a proper subset of the partitions
	}{
		{"burst", burst, burstA, 8, 0, false},
		{"mesh step", step, stepA, 1, 2, true},
	} {
		var deepened, solves, kept []int
		eng, err := NewEngine(tc.g, WithObserver(func(ev Event) {
			if ev.Kind == EventEnd && ev.Phase == PhaseBalance {
				deepened, solves = append(deepened, ev.Deepened), append(solves, ev.LPSolves)
				kept = append(kept, ev.TightKept)
			}
		}))
		if err != nil {
			t.Fatal(err)
		}
		st, err := eng.Repartition(context.Background(), tc.a)
		eng.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.Stages == 0 || !slices.Equal(st.StageDeepened, deepened) || !slices.Equal(st.StageLPSolves, solves) ||
			!slices.Equal(st.StageTightKept, kept) {
			t.Fatalf("%s: %d stages: Stats say deepened %v solves %v kept %v, the events %v %v %v", tc.name,
				st.Stages, st.StageDeepened, st.StageLPSolves, st.StageTightKept, deepened, solves, kept)
		}
		p := tc.a.P
		some, d, k := false, 0, 0
		for s := range solves {
			if solves[s] < 1 || deepened[s] < 0 || deepened[s] > p || kept[s] > (p-deepened[s])*(p-1) ||
				(deepened[s] > 0) != (solves[s] > int(st.EpsilonUsed[s])) {
				t.Fatalf("%s: stage %d at ε=%g: %d of %d partitions deepened over %d LP solves, %d tight bounds kept",
					tc.name, s+1, st.EpsilonUsed[s], deepened[s], p, solves[s], kept[s])
			}
			some = some || (deepened[s] > 0 && deepened[s] < p)
			d, k = d+deepened[s], k+kept[s]
		}
		if d != tc.deepened || k != tc.kept || some != tc.deepensSome {
			t.Fatalf("%s: stages deepened %v and kept %v, want %d deepened and %d kept in all", tc.name, deepened, kept, tc.deepened, tc.kept)
		}
		if pt := st.PhaseTimings; pt.Layer <= 0 || pt.Balance <= 0 || pt.Total() > st.Elapsed {
			t.Fatalf("%s: phases %+v of a %v call", tc.name, pt, st.Elapsed)
		}
	}
}

// TestEveryLPIsAFlow: every LP the pipeline formulates is a min-cost
// flow, so the "network" solver — which has no fallback and refuses
// anything else — carries every configuration: flat with and without
// refinement, the V-cycle's coarsest solve plus fine polish, and a
// balance tolerance, whose ranged supplies are one slack arc per
// partition (one-shot engine, batched, multilevel). A recording solver
// sees equality rows only, network never errors, tolerance calls do hand
// it slack columns, and they deliver a valid assignment within the
// tolerance.
func TestEveryLPIsAFlow(t *testing.T) {
	ctx := context.Background()
	notEQ, exactRanged := counted.notEQ.Load(), counted.ranged.Load()
	grow := func(g *Graph, n int) {
		prev := Vertex(0)
		for i := 0; i < n; i++ {
			v := g.AddVertex(1)
			if err := g.AddEdge(v, prev, 1); err != nil {
				t.Fatal(err)
			}
			prev = v
		}
	}
	recorded := withCountingSolver()
	for name, opts := range map[string][]Option{
		"flat":              {recorded},
		"flat+refine":       {recorded, WithRefine()},
		"multilevel":        {recorded, WithMultilevel()},
		"multilevel+refine": {recorded, WithMultilevel(), WithRefine()},
	} {
		for _, p := range []int{4, 32} {
			g, a := grownMesh(t, 900, p, 60, 5)
			eng, err := NewEngine(g, opts...)
			if err != nil {
				t.Fatal(err)
			}
			calls, pivots := counted.calls.Load(), 0
			for call := 0; call < 4; call++ {
				st, err := eng.Repartition(ctx, a)
				if err != nil {
					t.Fatalf("%s P=%d call %d: %v", name, p, call, err)
				}
				pivots += st.LPIterations
				grow(g, 25)
			}
			if pivots == 0 || counted.calls.Load() == calls {
				t.Fatalf("%s P=%d: no LP pivoted; the check is vacuous", name, p)
			}
			eng.Close()
		}
	}
	if n := counted.ranged.Load() - exactRanged; n != 0 {
		t.Fatalf("%d exact-balance LPs carried a zero-cost column", n)
	}

	const tol = 2
	for name, opts := range map[string][]Option{
		"engine":     nil,
		"batched":    {WithBatches(2), WithRefine()},
		"multilevel": {WithMultilevel()},
	} {
		g, a := grownMesh(t, 900, 8, 60, 5)
		ranged := counted.ranged.Load()
		st, err := Repartition(ctx, g, a, append(opts, recorded, WithTolerance(tol))...)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if counted.ranged.Load() == ranged {
			t.Fatalf("%s: no tolerance LP reached the solver", name)
		}
		if st.Elapsed <= 0 || st.CutIncremental == 0 {
			t.Fatalf("%s: Elapsed = %v, CutIncremental = %d: the call's counters were dropped", name, st.Elapsed, st.CutIncremental)
		}
		if err := a.Validate(g); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		targets := partition.Targets(g.NumVertices(), a.P)
		for q, size := range a.Sizes(g) {
			if d := size - targets[q]; d < -tol || d > tol {
				t.Fatalf("%s: partition %d has %d vertices, target %d ± %d", name, q, size, targets[q], tol)
			}
		}
	}
	if n := counted.notEQ.Load() - notEQ; n != 0 {
		t.Fatalf("%d LPs had a row that is not an equality", n)
	}
}
