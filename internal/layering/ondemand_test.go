// Tests of layering on demand, across the kernel's two steps and the
// engine's balance stage that drives them. They live in the external test
// package because they need both this package's naive Figure-3 reference
// and the engine, which imports this package.
package layering_test

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/balance"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/layering"
	"repro/internal/lp"
	"repro/internal/partition"
)

// onDemandCase draws a graph and a complete assignment from seed: a
// G(n,m) graph with deleted vertices and scattered blocks (wide rims,
// shallow interiors), or a grid cut into stripes of uneven width with a
// little scatter (thin rims, deep interiors, real surplus to move).
func onDemandCase(t *testing.T, seed int64) (*graph.Graph, *partition.Assignment) {
	rng := rand.New(rand.NewSource(seed))
	if seed%2 == 0 {
		n := 10 + rng.Intn(300)
		g, err := graph.RandomGNM(n, min(n/2+rng.Intn(3*n), n*(n-1)/2), rng)
		if err != nil {
			t.Fatal(err)
		}
		for i := rng.Intn(n / 5); i > 0; i-- {
			if v := graph.Vertex(rng.Intn(n)); g.Alive(v) && g.NumVertices() > 1 {
				if err := g.RemoveVertex(v); err != nil {
					t.Fatal(err)
				}
			}
		}
		p := 2 + rng.Intn(7)
		a := partition.New(n, p)
		for v := 0; v < n; v++ {
			if g.Alive(graph.Vertex(v)) {
				a.Part[v] = int32(v * p / n)
				if rng.Intn(5) == 0 {
					a.Part[v] = int32(rng.Intn(p))
				}
			}
		}
		return g, a
	}
	rows, cols, p := 3+rng.Intn(10), 12+rng.Intn(30), 2+rng.Intn(5)
	g := graph.Grid(rows, cols)
	cuts := make([]int, p-1) // stripe q ends before column cuts[q]
	for q := range cuts {
		cuts[q] = 1 + rng.Intn(cols-1)
	}
	slices.Sort(cuts)
	a := partition.New(g.Order(), p)
	for v := range a.Part {
		q, _ := slices.BinarySearch(cuts, v%cols+1)
		a.Part[v] = int32(q)
		if rng.Intn(15) == 0 {
			a.Part[v] = int32(rng.Intn(p))
		}
	}
	return g, a
}

// fullDepthStage is the balance stage over a complete layering: the LP on
// the full δ at ε = 1, 2, … until feasible. It returns the accepted ε, its
// model and Σ flows, or ok = false when every ε is infeasible or an ε
// relaxes every supply to within the tolerance (zero flow: the stage
// would move nothing).
func fullDepthStage(t *testing.T, delta [][]int, sizes, targets []int, tol int) (eps float64, m *balance.Model, total int, ok bool) {
	for eps = 1; eps <= 8; eps++ {
		m, err := new(balance.Arena).FormulateTol(delta, sizes, targets, eps, tol)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.ContainsFunc(m.RHS, func(r int) bool { return r > tol || r < -tol }) {
			return 0, nil, 0, false
		}
		flows, sol, err := balance.SolveInto(context.Background(), m, lp.Default(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if sol.Status == lp.Optimal {
			for _, f := range flows {
				total += f.Amount
			}
			return eps, m, total, true
		}
	}
	return 0, nil, 0, false
}

// requireSameStage runs the engine on a and requires of its first
// demand-driven stage what the full-depth stage from the same state would
// have done: the same ε and the same number of vertices moved, by flows
// that are feasible for the full-depth LP; where the full-depth stage is
// infeasible at every ε or relaxed to zero flow, no stage and an exactly
// balanced result by the spill. The observer captures the assignment at
// that stage's balance end, before any later stage moves. It returns the
// call's Stats, nil when no stage ran.
func requireSameStage(t *testing.T, g *graph.Graph, a *partition.Assignment, full *layering.Result, tol int) *engine.Stats {
	t.Helper()
	before := a.Clone()
	sizes, targets := a.Sizes(g), partition.Targets(g.NumVertices(), a.P)
	var after []int32
	eng := engine.New(g, engine.Options{Tolerance: tol, Observer: func(ev engine.Event) {
		if ev.Kind == engine.EventEnd && ev.Phase == engine.PhaseBalance && ev.Stage == 1 {
			after = slices.Clone(a.Part)
		}
	}})
	st, err := eng.Repartition(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	balanced := true
	for q := range sizes {
		balanced = balanced && max(sizes[q]-targets[q], targets[q]-sizes[q]) <= tol
	}
	eps, m, total, ok := fullDepthStage(t, full.Delta, sizes, targets, tol)
	if balanced || !ok {
		if st.Stages != 0 || balanced != (st.Spilled == 0) {
			t.Fatalf("balanced %v, full-depth feasible %v: engine ran %d stages, spilled %d", balanced, ok, st.Stages, st.Spilled)
		}
		if got := a.Sizes(g); !balanced && !slices.Equal(got, targets) {
			t.Fatalf("spilled %d: sizes %v, want exactly %v", st.Spilled, got, targets)
		}
		return nil
	}
	if st.Stages < 1 {
		t.Fatalf("full-depth stage accepts ε=%g, engine ran no stage", eps)
	}
	if st.EpsilonUsed[0] != eps || st.StageMoved[0] != total {
		t.Fatalf("stage accepted ε=%g and moved %d, full-depth stage ε=%g and %d", st.EpsilonUsed[0], st.StageMoved[0], eps, total)
	}
	// Every solve but the last at each ε finishes at least one partition.
	if solves, deepened := st.StageLPSolves[0], st.StageDeepened[0]; solves < 1 || solves > deepened+int(eps) || deepened > a.P {
		t.Fatalf("stage at ε=%g reports %d LP solves, %d of %d partitions deepened", eps, solves, deepened, a.P)
	}
	// Every vertex sits in one pool and moves at most once per stage, so
	// the assignment diff is the accepted flow.
	flow := make([][]int, a.P)
	for i := range flow {
		flow[i] = make([]int, a.P)
	}
	out := make([]int, a.P)
	for v, from := range before.Part {
		if to := after[v]; to != from {
			flow[from][to]++
			out[from]++
			out[to]--
		}
	}
	for i := range flow {
		for j, f := range flow[i] {
			if f > full.Delta[i][j] {
				t.Fatalf("flow %d→%d = %d exceeds the full-depth bound δ = %d", i, j, f, full.Delta[i][j])
			}
		}
		if out[i] < m.RHS[i]-tol || out[i] > m.RHS[i]+tol {
			t.Fatalf("partition %d: net outflow %d, the full-depth LP at ε=%g wants %d ± %d", i, out[i], eps, m.RHS[i], tol)
		}
	}
	return st
}

// FuzzLayerOnDemand is the differential fuzz of layering on demand, over
// random graphs, assignments and partition subsets:
// (a) Rim + Complete of everything is the naive Figure-3 reference;
// (b) after finishing a subset, every rim label and everything about a
// finished partition is the full layering's, and each pool — some asked
// for before the subset was finished, so ordered in two pieces — is an
// exact prefix of the full pool; (c) the engine's demand-driven stage
// accepts the full-depth stage's ε and Σ flows with flows feasible for
// the full-depth LP.
func FuzzLayerOnDemand(f *testing.F) {
	f.Add(int64(1), uint16(0b101), uint8(0))
	f.Add(int64(2), uint16(0b11), uint8(1))
	f.Add(int64(7), uint16(0xffff), uint8(0))
	f.Add(int64(12), uint16(0), uint8(2))
	f.Add(int64(-245), uint16(130), uint8(0x85))   // a stage that accepts a tight rim optimum moves too few here
	f.Add(int64(-262), uint16(65421), uint8(0x9c)) // relaxed to zero flow: no stage, the spill balances
	f.Fuzz(func(t *testing.T, seed int64, subset uint16, tol uint8) {
		g, a := onDemandCase(t, seed)
		n, p := g.Order(), a.P
		ctx := context.Background()
		c := g.ToCSR()
		want := layering.Figure3(g, a)

		// (a) at full depth, seeded with every slot.
		full, err := new(layering.Scratch).LayerSeeded(ctx, c, a, g.Vertices())
		if err != nil {
			t.Fatal(err)
		}
		layering.RequireMatchesFigure3(t, fmt.Sprintf("seed %d", seed), full, want, n, p)

		// (b) rim, a few pools asked for early, then the subset.
		var s layering.Scratch
		r := s.Rim(c, a, g.Vertices())
		var parts []int32
		for i := int32(0); i < int32(p); i++ {
			if subset>>i&1 == 1 {
				parts = append(parts, i, i) // duplicates are harmless
			} else {
				r.Pool(i, (i+1)%int32(p))
				r.Pool(i, (i+2)%int32(p))
			}
		}
		if k, err := s.Complete(ctx, parts); err != nil || k != len(parts)/2 {
			t.Fatalf("Complete(%v) finished %d partitions, err %v", parts, k, err)
		}
		for v := 0; v < n; v++ {
			lab, lev := full.Label[v], full.Level[v]
			if lev > 0 && !r.Done(a.Part[v]) {
				lab, lev = -1, -1
			}
			if r.Label[v] != lab || r.Level[v] != lev {
				t.Fatalf("vertex %d of partition %d (done %v): (label, level) = (%d, %d), want (%d, %d)",
					v, a.Part[v], r.Done(a.Part[v]), r.Label[v], r.Level[v], lab, lev)
			}
		}
		for i := int32(0); i < int32(p); i++ {
			for j := int32(0); j < int32(p); j++ {
				got, all := r.Pool(i, j), full.Pool(i, j)
				if len(got) != r.Delta[i][j] || len(got) > len(all) || !slices.Equal(got, all[:len(got)]) {
					t.Fatalf("pool(%d,%d) = %v with δ = %d is not a prefix of the full pool %v", i, j, got, r.Delta[i][j], all)
				}
				if r.Done(i) != (subset>>i&1 == 1) || (r.Done(i) && len(got) != len(all)) || (len(got) == 0) != (len(all) == 0) {
					t.Fatalf("pool(%d,%d): done %v, %d of %d vertices", i, j, r.Done(i), len(got), len(all))
				}
			}
		}
		if _, err := s.Complete(ctx, s.All()); err != nil {
			t.Fatal(err)
		}
		layering.RequireMatchesFigure3(t, "rim, subset, then the rest", r, want, n, p)

		// (c) the stage.
		requireSameStage(t, g, a, full, int(tol%3))
	})
}

// TestStageInfeasibleOnTheRim forces the case the stage must not get
// wrong: thin partitions whose rim cannot carry the surplus but whose
// interior can. The rim LP is infeasible at ε = 1 and would turn feasible
// at a larger ε; the stage has to finish the layering and accept the
// full-depth stage's ε instead of escalating.
func TestStageInfeasibleOnTheRim(t *testing.T) {
	for _, tc := range []struct {
		name       string
		rows, cols int
		cuts       []int // stripe q ends before column cuts[q]
	}{
		{"one wide stripe beside a thin one", 4, 12, []int{9}},
		{"surplus crosses a balanced middle stripe", 3, 30, []int{15, 25}},
		{"two wide stripes feed two thin ones", 5, 24, []int{10, 12, 22}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := graph.Grid(tc.rows, tc.cols)
			a := partition.New(g.Order(), len(tc.cuts)+1)
			for v := range a.Part {
				q, _ := slices.BinarySearch(tc.cuts, v%tc.cols+1)
				a.Part[v] = int32(q)
			}
			full, err := layering.Layer(g, a)
			if err != nil {
				t.Fatal(err)
			}
			sizes, targets := a.Sizes(g), partition.Targets(g.NumVertices(), a.P)
			var rim layering.Scratch
			r := rim.Rim(g.ToCSR(), a, g.Vertices())
			m, err := new(balance.Arena).FormulateTol(r.Delta, sizes, targets, 1, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, sol, err := balance.SolveInto(context.Background(), m, lp.Default(), nil); err != nil || sol.Status == lp.Optimal {
				t.Fatalf("the rim LP at ε=1 must be infeasible for this row to test anything (status %v, err %v)", sol.Status, err)
			}
			st := requireSameStage(t, g, a, full, 0)
			if st == nil || st.EpsilonUsed[0] != 1 || st.StageDeepened[0] != a.P || st.StageLPSolves[0] != 2 {
				t.Fatalf("stage %+v, want ε=1 after finishing all %d partitions and one re-solve", st, a.P)
			}
		})
	}
}
