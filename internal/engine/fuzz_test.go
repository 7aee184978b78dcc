package engine

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/layering"
	"repro/internal/lp"
	"repro/internal/partition"
	"repro/internal/refine"
	"repro/internal/spectral"
)

// FuzzBoundaryExact is the differential fuzz of everything sync tracks:
// random edit sequences over fractionally weighted random geometric
// graphs. After every burst —
// whichever way the sync went: journal patch, journal-overflow rebuild,
// a partition-count change, vertex deletion, vertices left
// unassigned — the boundary list must be the brute-force set in strictly
// ascending order, every listed vertex's stored cut term must equal a fresh
// scan of its row, and Engine.Cut must equal partition.Cut bit for bit.
func FuzzBoundaryExact(f *testing.F) {
	f.Add(int64(1), uint8(12))
	f.Add(int64(42), uint8(40))
	f.Add(int64(7), uint8(25))
	f.Fuzz(func(t *testing.T, seed int64, edits uint8) {
		n := 60 + int(uint64(seed)%400)
		p := 3 + int(uint64(seed)%4)
		g, a := editableGraph(t, n, p, seed)
		fractionalWeights(g, rand.New(rand.NewSource(seed^0xf7ac)))
		e := New(g, Options{})
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		requireTrackedCut(t, "cold", e, g, a)
		for i := 0; i < int(edits); i++ {
			switch k := rng.Intn(24); {
			case k == 0: // overflow the journal: the next sync rebuilds
				for j := 0; j < 1<<14+1; j++ {
					g.SetVertexWeight(graph.Vertex(j%g.Order()), 1)
				}
			case k == 2: // one more (empty) partition, or the last one folded away
				if a.P > 3 && rng.Intn(2) == 0 {
					a.P--
					for v := range a.Part {
						if a.Part[v] == int32(a.P) {
							a.Part[v] = 0
						}
					}
				} else {
					a.P++
				}
			case k < 6: // re-weigh an edge to another non-integer
				u := graph.Vertex(rng.Intn(g.Order()))
				if g.Alive(u) && g.Degree(u) > 0 {
					v := g.Neighbors(u)[rng.Intn(g.Degree(u))]
					_ = g.RemoveEdge(u, v)
					_ = g.AddEdge(u, v, 0.1+rng.Float64())
				}
			case k < 12: // unassigned vertices, deletions that leave a stale slot
				randomGrowthEdit(g, a, rng)
			default:
				randomEdit(g, a, rng)
			}
			if i%3 == 0 {
				requireTrackedCut(t, "after a burst", e, g, a)
			}
		}
		requireTrackedCut(t, "final", e, g, a)
	})
}

// requireSameLayer asserts two layerings agree on every exported field.
func requireSameLayer(t testing.TB, got, want *layering.Result, p int) {
	t.Helper()
	if !reflect.DeepEqual(got.Label, want.Label) {
		t.Fatal("Label diverges")
	}
	if !reflect.DeepEqual(got.Level, want.Level) {
		t.Fatal("Level diverges")
	}
	if !reflect.DeepEqual(got.Delta, want.Delta) {
		t.Fatal("Delta diverges")
	}
	for i := 0; i < p; i++ {
		for j := 0; j < p; j++ {
			gp, wp := got.Pool(int32(i), int32(j)), want.Pool(int32(i), int32(j))
			if len(gp) != len(wp) {
				t.Fatalf("pool(%d,%d) length %d, want %d", i, j, len(gp), len(wp))
			}
			for k := range gp {
				if gp[k] != wp[k] {
					t.Fatalf("pool(%d,%d)[%d] = %d, want %d", i, j, k, gp[k], wp[k])
				}
			}
		}
	}
}

// requireSameGains asserts two candidate sets agree on every exported
// field.
func requireSameGains(t testing.TB, got, want *refine.Candidates, p int) {
	t.Helper()
	if !reflect.DeepEqual(got.B, want.B) {
		t.Fatal("B diverges")
	}
	if !reflect.DeepEqual(got.Gain, want.Gain) {
		t.Fatal("Gain diverges")
	}
	for i := 0; i < p; i++ {
		for j := 0; j < p; j++ {
			gp, wp := got.Pool(int32(i), int32(j)), want.Pool(int32(i), int32(j))
			if len(gp) != len(wp) {
				t.Fatalf("pool(%d,%d) length diverges", i, j)
			}
			for k := range gp {
				if gp[k] != wp[k] {
					t.Fatalf("pool(%d,%d)[%d] diverges", i, j, k)
				}
			}
		}
	}
}

// requireSameBoundary asserts an engine's boundary list is the
// brute-force set in strictly ascending id order.
func requireSameBoundary(t testing.TB, got []graph.Vertex, want map[graph.Vertex]bool) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("boundary has %d vertices, want %d", len(got), len(want))
	}
	for i, v := range got {
		if i > 0 && got[i-1] >= v {
			t.Fatalf("boundary not strictly ascending: %d then %d at %d", got[i-1], v, i)
		}
		if !want[v] {
			t.Fatalf("vertex %d wrongly in boundary", v)
		}
	}
}

// FuzzWarmEquivalence is the warm-engine ≡ full-recompute fuzz: the
// same random edit script drives a warm refining engine — journal-patched
// snapshot, incremental sync, write-log syncs inside a call, pools patched
// from the class log — and a FullRefresh engine, the reference that
// rebuilds every piece of derived state, over one to five Repartition
// calls. After every call the assignment, the boundary, the layering and
// the gain candidates must agree bit for bit.
func FuzzWarmEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(6), uint8(2), false)
	f.Add(int64(9), uint8(20), uint8(4), true)
	f.Add(int64(23), uint8(14), uint8(0), false)
	f.Fuzz(func(t *testing.T, seed int64, edits uint8, calls uint8, strict bool) {
		ctx := context.Background()
		n := 60 + int(uint64(seed)%400)
		p := 3 + int(uint64(seed)%5)
		gW, aW := editableGraph(t, n, p, seed)
		gF, aF := gW.Clone(), aW.Clone()
		eW := New(gW, Options{Refine: true})
		eF := New(gF, Options{Refine: true, FullRefresh: true})
		rngW := rand.New(rand.NewSource(seed ^ 0xfa11))
		rngF := rand.New(rand.NewSource(seed ^ 0xfa11))
		for call := 0; call <= int(calls%5); call++ {
			// Alternate plain and growth edits so the delta-aware phase 1
			// (unassigned vertices, orphan clusters) is part of the
			// contract too.
			for i := 0; i < 1+int(edits)%24; i++ {
				if i%2 == 0 {
					randomEdit(gW, aW, rngW)
					randomEdit(gF, aF, rngF)
				} else {
					randomGrowthEdit(gW, aW, rngW)
					randomGrowthEdit(gF, aF, rngF)
				}
			}
			_, errW := eW.Repartition(ctx, aW)
			_, errF := eF.Repartition(ctx, aF)
			if (errW == nil) != (errF == nil) {
				t.Fatalf("call %d: repartition error mismatch: %v vs %v", call, errW, errF)
			}
			if !slices.Equal(aW.Part, aF.Part) {
				t.Fatalf("call %d: assignments diverge", call)
			}
			requireSameBoundary(t, eW.Boundary(aW), bruteBoundary(gW, aW))
			if !slices.Equal(eW.Boundary(aW), eF.Boundary(aF)) {
				t.Fatalf("call %d: boundaries diverge", call)
			}
			layW, errW := eW.Layer(ctx, aW)
			layF, errF := eF.Layer(ctx, aF)
			if (errW == nil) != (errF == nil) {
				t.Fatalf("call %d: layer error mismatch: %v vs %v", call, errW, errF)
			}
			if errW == nil {
				requireSameLayer(t, layW, layF, aW.P)
			}
			cW, errW := eW.Gains(aW, strict)
			cF, errF := eF.Gains(aF, strict)
			if (errW == nil) != (errF == nil) {
				t.Fatalf("call %d: gains error mismatch: %v vs %v", call, errW, errF)
			}
			if errW == nil {
				requireSameGains(t, cW, cF, aW.P)
			}
		}
	})
}

// requireSameSnapshot compares a snapshot's logical content against a
// fresh full rebuild: every row, weight, liveness flag and count must be
// identical (slack layout is free to differ).
func requireSameSnapshot(t *testing.T, got, want *graph.CSR) {
	t.Helper()
	if got.Order() != want.Order() || got.NumV != want.NumV || got.NumE != want.NumE {
		t.Fatalf("snapshot shape diverges: order %d/%d numV %d/%d numE %d/%d",
			got.Order(), want.Order(), got.NumV, want.NumV, got.NumE, want.NumE)
	}
	for v := 0; v < want.Order(); v++ {
		if got.Live[v] != want.Live[v] {
			t.Fatalf("vertex %d: liveness diverges", v)
		}
		gr, wr := got.Row(graph.Vertex(v)), want.Row(graph.Vertex(v))
		gw, ww := got.RowWeights(graph.Vertex(v)), want.RowWeights(graph.Vertex(v))
		if len(gr) != len(wr) {
			t.Fatalf("vertex %d: degree %d, want %d", v, len(gr), len(wr))
		}
		for i := range wr {
			if gr[i] != wr[i] || gw[i] != ww[i] {
				t.Fatalf("vertex %d arc %d: (%d,%g), want (%d,%g)", v, i, gr[i], gw[i], wr[i], ww[i])
			}
		}
	}
}

// FuzzCSRPatchEquivalence is the delta-pipeline exactness fuzz: random
// edit scripts drive a warm engine, and after every burst the
// journal-patched CSR snapshot must match a fresh full rebuild and the
// tracked cut must match the brute-force partition.Cut — floats
// included.
func FuzzCSRPatchEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(12))
	f.Add(int64(42), uint8(40))
	f.Add(int64(7), uint8(25))
	f.Fuzz(func(t *testing.T, seed int64, edits uint8) {
		n := 60 + int(uint64(seed)%400)
		p := 3 + int(uint64(seed)%4)
		g, a := editableGraph(t, n, p, seed)
		e := New(g, Options{})
		rng := rand.New(rand.NewSource(seed ^ 0x9a7c))
		check := func() {
			e.Boundary(a) // syncs e.csr
			requireSameSnapshot(t, e.csr, g.RebuildCSRInto(nil))
			sameCut(t, "tracked cut vs oracle", e.Cut(a), partition.Cut(g, a))
		}
		check()
		for i := 0; i < int(edits); i++ {
			if i%2 == 0 {
				randomEdit(g, a, rng)
			} else {
				randomGrowthEdit(g, a, rng)
			}
			if i%3 == 0 {
				check()
			}
			if i%5 == 4 {
				// Interleave full pipeline runs so moves, stale pendings
				// and refreshes mix the way a real session does.
				_, _ = e.Repartition(context.Background(), a)
			}
		}
		check()
	})
}

// FuzzVCycleValidity is the multilevel quality fuzz: random edit
// histories drive a V-cycle engine (tiny CoarsenTo so even fuzz-sized
// graphs build real hierarchies). Every multilevel Repartition must
// succeed exactly balanced (the spill balances what the stages cannot)
// with a valid assignment and a hierarchy that passes its structural
// oracle whenever the V-cycle ran, and its cut must stay within a
// generous bound (2x + 16) of a flat-pipeline run cloned from the same
// pre-call state, which must succeed exactly balanced too — same-state
// comparison, because letting two pipelines evolve separately would
// measure accumulated basin divergence, not per-call quality. The
// tighter paper-mesh bound is TestMultilevelCutWithinBoundOfFlat. A
// third clone goes to a fresh multilevel engine, whose assignment the
// warm one must equal bit for bit after every call.
func FuzzVCycleValidity(f *testing.F) {
	f.Add(int64(1), uint8(10))
	f.Add(int64(42), uint8(30))
	f.Add(int64(7), uint8(22))
	f.Fuzz(func(t *testing.T, seed int64, edits uint8) {
		n := 60 + int(uint64(seed)%300)
		p := 2 + int(uint64(seed)%4)
		g, a := editableGraph(t, n, p, seed)
		mlOpt := Options{
			Refine:     true,
			Multilevel: MultilevelOptions{Enabled: true, CoarsenTo: 8, Seed: seed},
		}
		e := New(g, mlOpt)
		defer e.Close()
		rng := rand.New(rand.NewSource(seed ^ 0x7c1e))
		check := func() {
			gF, aF := g.Clone(), a.Clone()
			gO, aO := g.Clone(), a.Clone()
			st, err := e.Repartition(context.Background(), a)
			ranVCycle := len(st.Levels) > 0
			eF := New(gF, Options{Refine: true})
			_, errF := eF.Repartition(context.Background(), aF)
			eF.Close()
			eO := New(gO, mlOpt)
			_, errO := eO.Repartition(context.Background(), aO)
			eO.Close()
			if err != nil {
				t.Fatalf("multilevel Repartition: %v", err)
			}
			if errF != nil {
				t.Fatalf("flat Repartition: %v", errF)
			}
			if errO != nil {
				t.Fatalf("one-shot multilevel Repartition: %v", errO)
			}
			if verr := a.Validate(g); verr != nil {
				t.Fatalf("invalid multilevel assignment (err=%v): %v", err, verr)
			}
			// The engine keeps nothing of a V-cycle between calls: its
			// output is a fresh engine's on the same state, bit for bit.
			if !reflect.DeepEqual(a.Part, aO.Part) {
				t.Fatal("warm multilevel engine differs from a one-shot one")
			}
			if ranVCycle {
				requireHierarchy(t, g, a, mlOpt.Multilevel)
			}
			targets := partition.Targets(g.NumVertices(), a.P)
			if dev := maxAbsDev(a.Sizes(g), targets); dev != 0 {
				t.Fatalf("multilevel balance off by %d", dev)
			}
			if dev := maxAbsDev(aF.Sizes(gF), targets); dev != 0 {
				t.Fatalf("flat balance off by %d", dev)
			}
			flat := partition.Cut(gF, aF).TotalWeight
			if ml := partition.Cut(g, a).TotalWeight; ml > 2*flat+16 {
				t.Fatalf("V-cycle cut %g exceeds 2*%g+16 of flat", ml, flat)
			}
		}
		check()
		for i := 0; i < int(edits); i++ {
			if i%2 == 0 {
				randomEdit(g, a, rng)
			} else {
				randomGrowthEdit(g, a, rng)
			}
			if i%7 == 6 {
				check()
			}
		}
		check()
	})
}

// FuzzRefineIncremental is the differential fuzz of the refinement
// round's two pieces of derived state. A warm engine absorbs random edits, random balanced move
// batches — also two batches with a sync between them and no Gains, the
// second swapping some of the first's pairs back, so a vertex is
// classified by two syncs (A→B→A) before the pools are patched — and the
// loose→strict switch, and after every step its Gains must equal a fresh
// scan over the brute-force boundary — pools, order, B and Gain, or fail
// when the scan does. Interleaved full IGPR calls check
// the cut the driver reads after every applied round, and the CutAfter it
// leaves, against partition.Cut: bit for bit, on unit weights and on the
// fractional weights frac turns on alike.
func FuzzRefineIncremental(f *testing.F) {
	f.Add(int64(1), uint8(12), false)
	f.Add(int64(42), uint8(40), true)
	f.Add(int64(7), uint8(25), false)
	f.Add(int64(311), uint8(30), true)
	f.Add(int64(63), uint8(55), true) // a vertex reclassified twice between two Gains
	f.Fuzz(func(t *testing.T, seed int64, steps uint8, frac bool) {
		n := 60 + int(uint64(seed)%400)
		p := 3 + int(uint64(seed)%5)
		g, a := editableGraph(t, n, p, seed)
		if frac {
			fractionalWeights(g, rand.New(rand.NewSource(seed^0x6a17)))
		}
		var exact []float64
		e := New(g, Options{Refine: true, Observer: func(ev Event) {
			if ev.Kind == EventRound {
				exact = append(exact, partition.Cut(g, a).TotalWeight)
			}
		}})
		rng := rand.New(rand.NewSource(seed ^ 0x1c3))
		checkGains := func(step int, strict bool) {
			got, err := e.Gains(a, strict)
			var seeds []graph.Vertex
			for v := range bruteBoundary(g, a) {
				seeds = append(seeds, v)
			}
			var fresh refine.Scratch
			want, errW := fresh.GainsSeeded(g.RebuildCSRInto(nil), a, strict, seeds)
			if (err == nil) != (errW == nil) {
				t.Fatalf("step %d: gains error mismatch: %v vs %v", step, err, errW)
			}
			if err == nil {
				requireSameGains(t, got, want, a.P)
			}
		}
		// swaps is a balanced batch: it swaps the partitions of random
		// vertex pairs and returns the pairs it swapped.
		swaps := func() (pairs [][2]graph.Vertex) {
			for k := rng.Intn(12); k > 0; k-- {
				u, v := graph.Vertex(rng.Intn(g.Order())), graph.Vertex(rng.Intn(g.Order()))
				if g.Alive(u) && g.Alive(v) && a.Part[u] >= 0 && a.Part[v] >= 0 {
					a.Part[u], a.Part[v] = a.Part[v], a.Part[u]
					pairs = append(pairs, [2]graph.Vertex{u, v})
				}
			}
			return pairs
		}
		checkGains(-1, false)
		for i := 0; i < int(steps); i++ {
			switch i % 5 {
			case 0:
				randomEdit(g, a, rng)
			case 1:
				// Every other time the new vertices stay unassigned
				// until the next Repartition: Gains must then fail,
				// patched or not.
				randomGrowthEdit(g, a, rng)
				if i%10 == 1 {
					if _, _, err := e.assign(a); err != nil {
						return // nothing assigned left to grow from
					}
				}
			case 2:
				swaps()
			case 3:
				// Two syncs before the next Gains: the cut report syncs
				// the first batch, then every other pair goes back.
				pairs := swaps()
				e.Cut(a)
				for k := len(pairs) - 1; k >= 0; k -= 2 {
					u, v := pairs[k][0], pairs[k][1]
					a.Part[u], a.Part[v] = a.Part[v], a.Part[u]
				}
			default:
				exact = exact[:0]
				st, err := e.Repartition(context.Background(), a)
				if err != nil {
					if errors.Is(err, ErrNeedRepartition) {
						continue
					}
					t.Fatalf("step %d: %v", i, err)
				}
				if len(st.RoundCuts) != len(exact) {
					t.Fatalf("step %d: %d running cuts for %d rounds", i, len(st.RoundCuts), len(exact))
				}
				for r, want := range exact {
					if got := st.RoundCuts[r]; got != want {
						t.Fatalf("step %d round %d: reported cut %g, partition.Cut %g", i, r+1, got, want)
					}
				}
				sameCut(t, "CutAfter vs oracle", st.CutAfter, partition.Cut(g, a))
			}
			checkGains(i, i%8 >= 4) // loose for four steps, strict for four
		}
	})
}

// FuzzRefineSchedule: refine.Drive's exits change no result. A warm
// refining engine absorbs random edit bursts on a
// random geometric mesh or a grid, unit or fractional weights; after
// every call its assignment and refinement CutAfter must equal, bit for
// bit, those of the same input run through a refine-less engine
// (assignment and balancing) and then scheduleReference, which applies
// the same loose-phase rule but runs every round to the cap.
func FuzzRefineSchedule(f *testing.F) {
	f.Add(int64(1), uint8(6), false, false)
	f.Add(int64(7), uint8(6), true, false)
	f.Add(int64(3), uint8(6), false, true)
	f.Add(int64(12), uint8(6), true, true)
	f.Fuzz(func(t *testing.T, seed int64, steps uint8, frac, grid bool) {
		p := 2 + int(uint64(seed)%5)
		var g *graph.Graph
		var a *partition.Assignment
		if grid {
			side := 6 + int(uint64(seed)%12)
			g = graph.Grid(side, side)
			part, err := spectral.RSB(g, p, spectral.Options{Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			a = &partition.Assignment{Part: part, P: p}
		} else {
			g, a = editableGraph(t, 60+int(uint64(seed)%300), p, seed)
		}
		if frac {
			fractionalWeights(g, rand.New(rand.NewSource(seed^0x5c4)))
		}
		gR, aR := g.Clone(), a.Clone()
		e := New(g, Options{Refine: true})
		ref := New(gR, Options{})
		burst := rand.New(rand.NewSource(seed ^ 0x3b))
		rng, rngR := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		for i := 0; i <= int(steps%12); i++ {
			for k := i % 2 * (1 + burst.Intn(8)); k > 0; k-- {
				randomEdit(g, a, rng)
				randomEdit(gR, aR, rngR)
			}
			st, err := e.Repartition(context.Background(), a)
			_, errR := ref.Repartition(context.Background(), aR)
			if (err == nil) != (errR == nil) {
				t.Fatalf("step %d: errors %v vs %v", i, err, errR)
			}
			if err != nil {
				break
			}
			cut := scheduleReference(t, gR, aR)
			if !slices.Equal(a.Part, aR.Part) || st.CutAfter.TotalWeight != cut {
				t.Fatalf("step %d: Drive left cut %g (stop %s after %d rounds), the reference %g; assignments equal: %v",
					i, st.CutAfter.TotalWeight, st.RefineStop, st.RefineRounds, cut, slices.Equal(a.Part, aR.Part))
			}
		}
	})
}

// scheduleReference is refine.Drive without its exits, written from the
// one-shot pieces: a fresh gain scan per round, partition.Cut after it,
// the loose phase ended by its second round or by the first loose round
// whose cut is not below the best one before it, every round run to the
// default cap of 8 unless one has no candidates or no gain, and the best
// assignment seen restored at the end. It returns the cut left behind.
func scheduleReference(t *testing.T, g *graph.Graph, a *partition.Assignment) float64 {
	best, bestCut := a.Clone(), partition.Cut(g, a).TotalWeight
	strict, loose := false, 0
	for round := 0; round < 8; round++ {
		c, err := new(refine.Scratch).GainsSeeded(g.ToCSR(), a, strict, g.Vertices())
		if err != nil {
			t.Fatal(err)
		}
		prob, pairs := new(refine.LPArena).Formulate(c)
		if len(pairs) == 0 {
			break
		}
		sol, err := lp.Network{}.Solve(context.Background(), prob)
		if err != nil {
			t.Fatal(err)
		}
		if sol.Status != lp.Optimal || sol.Objective < 0.5 {
			break
		}
		if _, err := refine.Apply(a, c, pairs, sol.X); err != nil {
			t.Fatal(err)
		}
		cut := partition.Cut(g, a).TotalWeight
		if !strict {
			loose++
			strict = loose == 2 || cut >= bestCut
		}
		if cut < bestCut {
			bestCut = cut
			copy(best.Part, a.Part)
		}
	}
	if partition.Cut(g, a).TotalWeight > bestCut {
		copy(a.Part, best.Part)
	}
	return partition.Cut(g, a).TotalWeight
}
