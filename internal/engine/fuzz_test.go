package engine

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/lp"
	"repro/internal/partition"
	"repro/internal/refine"
	"repro/internal/spectral"
)

// FuzzBoundaryExact is the differential fuzz of everything sync tracks:
// random edit sequences over fractionally weighted random geometric
// graphs, at 1, 2, 4 and a fuzzed number of workers. After every burst —
// whichever way the sync went: journal patch, journal-overflow rebuild,
// SortAdjacency, a partition-count change, vertex deletion, vertices left
// unassigned — the boundary list must be the brute-force set in strictly
// ascending order, every listed vertex's stored cut term must equal a fresh
// scan of its row, and Engine.Cut must equal partition.Cut bit for bit.
func FuzzBoundaryExact(f *testing.F) {
	f.Add(int64(1), uint8(12), uint8(0))
	f.Add(int64(42), uint8(40), uint8(3))
	f.Add(int64(7), uint8(25), uint8(7))
	f.Fuzz(func(t *testing.T, seed int64, edits uint8, procs uint8) {
		n := 60 + int(uint64(seed)%400) // spans parBoundaryMin: forked and one-shard boundary passes both get fuzzed
		p := 3 + int(uint64(seed)%4)
		g0, a0 := editableGraph(t, n, p, seed)
		fractionalWeights(g0, rand.New(rand.NewSource(seed^0xf7ac)))
		for _, workers := range []int{1, 2, 4, 1 + int(procs%8)} {
			g, a := g0.Clone(), a0.Clone()
			e := New(g, Options{Parallelism: workers})
			rng := rand.New(rand.NewSource(seed ^ 0x5eed))
			requireTrackedCut(t, "cold", e, g, a)
			for i := 0; i < int(edits); i++ {
				switch k := rng.Intn(24); {
				case k == 0: // overflow the journal: the next sync rebuilds
					for j := 0; j < 1<<14+1; j++ {
						g.SetVertexWeight(graph.Vertex(j%g.Order()), 1)
					}
				case k == 1: // reorders rows and drops the journal
					g.SortAdjacency()
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
		}
	})
}

// FuzzParallelEquivalence is the worker-count kernel equivalence fuzz:
// the same random edit sequence drives a one-worker and a multi-worker
// engine — the same kernels as one inline shard and as forked shards —
// and the boundary set, the layering result, the gain candidates and a
// full IGPR Repartition must stay bit-identical for the fuzzed worker
// count.
func FuzzParallelEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(6), uint8(2), false)
	f.Add(int64(9), uint8(20), uint8(5), true)
	f.Add(int64(23), uint8(14), uint8(15), false)
	f.Fuzz(func(t *testing.T, seed int64, edits uint8, procs uint8, strict bool) {
		workers := 2 + int(procs%15)
		n := 60 + int(uint64(seed)%400) // spans parBoundaryMin: forked and one-shard boundary passes both get fuzzed
		p := 3 + int(uint64(seed)%5)
		gSeq, aSeq := editableGraph(t, n, p, seed)
		gPar := gSeq.Clone()
		aPar := aSeq.Clone()
		eSeq := New(gSeq, Options{Refine: true, Parallelism: 1})
		ePar := New(gPar, Options{Refine: true, Parallelism: workers})
		rngSeq := rand.New(rand.NewSource(seed ^ 0xfa11))
		rngPar := rand.New(rand.NewSource(seed ^ 0xfa11))
		for i := 0; i < int(edits); i++ {
			// Alternate plain and growth edits so the delta-aware phase 1
			// (unassigned vertices, orphan clusters) is part of the
			// parallel-equivalence contract too.
			if i%2 == 0 {
				randomEdit(gSeq, aSeq, rngSeq)
				randomEdit(gPar, aPar, rngPar)
			} else {
				randomGrowthEdit(gSeq, aSeq, rngSeq)
				randomGrowthEdit(gPar, aPar, rngPar)
			}
		}

		requireSameBoundary(t, eSeq.Boundary(aSeq), bruteBoundary(gSeq, aSeq))
		requireSameBoundary(t, ePar.Boundary(aPar), bruteBoundary(gPar, aPar))
		laySeq, errS := eSeq.Layer(context.Background(), aSeq)
		layPar, errP := ePar.Layer(context.Background(), aPar)
		if (errS == nil) != (errP == nil) {
			t.Fatalf("layer error mismatch: %v vs %v", errS, errP)
		}
		if errS == nil {
			requireSameLayer(t, layPar, laySeq, aSeq.P)
		}
		cSeq, errS := eSeq.Gains(aSeq, strict)
		cPar, errP := ePar.Gains(aPar, strict)
		if (errS == nil) != (errP == nil) {
			t.Fatalf("gains error mismatch: %v vs %v", errS, errP)
		}
		if errS == nil {
			requireSameGains(t, cPar, cSeq, aSeq.P)
		}

		_, errS = eSeq.Repartition(context.Background(), aSeq)
		_, errP = ePar.Repartition(context.Background(), aPar)
		if (errS == nil) != (errP == nil) {
			t.Fatalf("repartition error mismatch: %v vs %v", errS, errP)
		}
		if errS != nil {
			return // infeasible on both: nothing further to compare
		}
		if len(aSeq.Part) != len(aPar.Part) {
			t.Fatalf("assignment lengths diverge: %d vs %d", len(aSeq.Part), len(aPar.Part))
		}
		for v := range aSeq.Part {
			if aSeq.Part[v] != aPar.Part[v] {
				t.Fatalf("assignment diverges at vertex %d: %d vs %d (workers=%d)",
					v, aSeq.Part[v], aPar.Part[v], workers)
			}
		}
	})
}

// FuzzVCycleParallelEquivalence is the multilevel parallel-equivalence
// fuzz: the same edit history — growth edits plus deterministic
// partition drift that forces hierarchy purity repairs — drives a
// one-worker and a multi-worker V-cycle engine, and every full
// multilevel Repartition must agree bit for bit: the assignment, the
// hierarchy-repaired flag and the level count. procs=1 runs every
// kernel as one inline shard; workers are drawn from {2,3,7,16}.
func FuzzVCycleParallelEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(10), uint8(0))
	f.Add(int64(42), uint8(30), uint8(1))
	f.Add(int64(7), uint8(22), uint8(2))
	f.Add(int64(19), uint8(16), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, edits uint8, procs uint8) {
		workers := []int{2, 3, 7, 16}[procs%4]
		n := 60 + int(uint64(seed)%300)
		p := 2 + int(uint64(seed)%4)
		gSeq, aSeq := editableGraph(t, n, p, seed)
		gPar := gSeq.Clone()
		aPar := aSeq.Clone()
		mk := func(g *graph.Graph, w int) *Engine {
			return New(g, Options{
				Refine:      true,
				Parallelism: w,
				Multilevel:  MultilevelOptions{Enabled: true, CoarsenTo: 8, Seed: seed},
			})
		}
		eSeq := mk(gSeq, 1)
		defer eSeq.Close()
		ePar := mk(gPar, workers)
		defer ePar.Close()
		rngSeq := rand.New(rand.NewSource(seed ^ 0x5c7c1e))
		rngPar := rand.New(rand.NewSource(seed ^ 0x5c7c1e))
		check := func() {
			stSeq, errS := eSeq.Repartition(context.Background(), aSeq)
			stPar, errP := ePar.Repartition(context.Background(), aPar)
			if (errS == nil) != (errP == nil) {
				t.Fatalf("repartition error mismatch: %v vs %v (workers=%d)", errS, errP, workers)
			}
			if errS != nil && !errors.Is(errS, ErrNeedRepartition) {
				t.Fatalf("multilevel Repartition: %v", errS)
			}
			if len(aSeq.Part) != len(aPar.Part) {
				t.Fatalf("assignment lengths diverge: %d vs %d", len(aSeq.Part), len(aPar.Part))
			}
			for v := range aSeq.Part {
				if aSeq.Part[v] != aPar.Part[v] {
					t.Fatalf("assignment diverges at vertex %d: %d vs %d (workers=%d)",
						v, aSeq.Part[v], aPar.Part[v], workers)
				}
			}
			if errS == nil {
				if stSeq.HierarchyRepaired != stPar.HierarchyRepaired {
					t.Fatalf("HierarchyRepaired diverges: %v vs %v (workers=%d)",
						stSeq.HierarchyRepaired, stPar.HierarchyRepaired, workers)
				}
				if len(stSeq.Levels) != len(stPar.Levels) {
					t.Fatalf("level count diverges: %d vs %d (workers=%d)",
						len(stSeq.Levels), len(stPar.Levels), workers)
				}
			}
		}
		check()
		for i := 0; i < int(edits); i++ {
			switch i % 3 {
			case 0:
				randomEdit(gSeq, aSeq, rngSeq)
				randomEdit(gPar, aPar, rngPar)
			case 1:
				randomGrowthEdit(gSeq, aSeq, rngSeq)
				randomGrowthEdit(gPar, aPar, rngPar)
			default:
				// Deterministic partition drift (applied identically to
				// both) forces purity dissolves on the next hierarchy
				// repair — the V-cycle path plain edits rarely reach.
				for k := 0; k < 5; k++ {
					v := graph.Vertex(rngSeq.Intn(gSeq.Order()))
					_ = rngPar.Intn(gPar.Order()) // keep streams aligned
					if gSeq.Alive(v) && aSeq.Part[v] >= 0 {
						np := int32((int(aSeq.Part[v]) + 1) % aSeq.P)
						aSeq.Part[v] = np
						aPar.Part[v] = np
					}
				}
			}
			if i%5 == 4 {
				check()
			}
		}
		check()
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
		if got.Live[v] != want.Live[v] || got.VW[v] != want.VW[v] {
			t.Fatalf("vertex %d: live/weight diverge", v)
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
	f.Add(int64(1), uint8(12), uint8(0))
	f.Add(int64(42), uint8(40), uint8(3))
	f.Add(int64(7), uint8(25), uint8(7))
	f.Fuzz(func(t *testing.T, seed int64, edits uint8, procs uint8) {
		workers := 1 + int(procs%8)
		n := 60 + int(uint64(seed)%400)
		p := 3 + int(uint64(seed)%4)
		g, a := editableGraph(t, n, p, seed)
		e := New(g, Options{Parallelism: workers})
		rng := rand.New(rand.NewSource(seed ^ 0x9a7c))
		check := func() {
			requireSameSnapshot(t, e.Snapshot(a), g.RebuildCSRInto(nil))
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
// leave a valid assignment no matter what, a hierarchy that passes its
// structural oracle whenever the V-cycle ran, exact balance when it
// succeeds, and its cut must stay within a generous bound (2x + 16) of
// a flat-pipeline run cloned from the same pre-call state — same-state
// comparison, because letting two pipelines evolve separately would
// measure accumulated basin divergence, not per-call quality. The
// tighter paper-mesh bound is TestMultilevelCutWithinBoundOfFlat.
func FuzzVCycleValidity(f *testing.F) {
	f.Add(int64(1), uint8(10), uint8(0))
	f.Add(int64(42), uint8(30), uint8(3))
	f.Add(int64(7), uint8(22), uint8(6))
	f.Fuzz(func(t *testing.T, seed int64, edits uint8, procs uint8) {
		workers := 1 + int(procs%8)
		n := 60 + int(uint64(seed)%300)
		p := 2 + int(uint64(seed)%4)
		g, a := editableGraph(t, n, p, seed)
		e := New(g, Options{
			Refine:      true,
			Parallelism: workers,
			Multilevel:  MultilevelOptions{Enabled: true, CoarsenTo: 8, Seed: seed},
		})
		defer e.Close()
		rng := rand.New(rand.NewSource(seed ^ 0x7c1e))
		check := func() {
			gF, aF := g.Clone(), a.Clone()
			st, err := e.Repartition(context.Background(), a)
			ranVCycle := len(st.Levels) > 0
			eF := New(gF, Options{Refine: true, Parallelism: workers})
			_, errF := eF.Repartition(context.Background(), aF)
			eF.Close()
			// Infeasibility (ErrNeedRepartition) is a documented outcome
			// of either pipeline on adversarial inputs, and the two can
			// disagree (the V-cycle reshapes the configuration the fine
			// stage loop then faces). The hard contract: the assignment
			// stays valid no matter what; when both succeed, exact balance
			// and the cut bound hold.
			if err != nil && !errors.Is(err, ErrNeedRepartition) {
				t.Fatalf("multilevel Repartition: %v", err)
			}
			if errF != nil && !errors.Is(errF, ErrNeedRepartition) {
				t.Fatalf("flat Repartition: %v", errF)
			}
			if verr := a.Validate(g); verr != nil {
				t.Fatalf("invalid multilevel assignment (err=%v): %v", err, verr)
			}
			if ranVCycle {
				// Balanced calls skip the V-cycle, so this one repaired a
				// deferred window of random length: it must have caught up
				// with every edit and move since the hierarchy was last
				// consulted.
				requireHierarchy(t, e, a)
			}
			if err != nil || errF != nil {
				return
			}
			if dev := maxAbsDev(a.Sizes(g), partition.Targets(g.NumVertices(), a.P)); dev != 0 {
				t.Fatalf("multilevel balance off by %d", dev)
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
// round's two pieces of derived state. A warm engine (procs 1 and the
// fuzzed count, side by side) absorbs random edits, random balanced move
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
	f.Add(int64(1), uint8(12), uint8(0), false)
	f.Add(int64(42), uint8(40), uint8(3), true)
	f.Add(int64(7), uint8(25), uint8(6), false)
	f.Add(int64(311), uint8(30), uint8(2), true)
	f.Add(int64(63), uint8(55), uint8(82), true) // a vertex reclassified twice between two Gains
	f.Fuzz(func(t *testing.T, seed int64, steps uint8, procs uint8, frac bool) {
		n := 60 + int(uint64(seed)%400) // spans parBoundaryMin
		p := 3 + int(uint64(seed)%5)
		g0, a0 := editableGraph(t, n, p, seed)
		rng := rand.New(rand.NewSource(seed ^ 0x6a17))
		if frac {
			fractionalWeights(g0, rng)
		}
		for _, workers := range []int{1, 2 + int(procs%7)} {
			g, a := g0.Clone(), a0.Clone()
			var exact []float64
			e := New(g, Options{Refine: true, Parallelism: workers, RefineOptions: refine.Options{
				OnRound: func(int, int) { exact = append(exact, partition.Cut(g, a).TotalWeight) },
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
					t.Fatalf("workers=%d step %d: gains error mismatch: %v vs %v", workers, step, err, errW)
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
						if errors.Is(err, ErrNeedRepartition) || errors.Is(err, errNoOldVertices) {
							continue
						}
						t.Fatalf("workers=%d step %d: %v", workers, i, err)
					}
					if len(st.RoundCuts) != len(exact) {
						t.Fatalf("workers=%d step %d: %d running cuts for %d rounds", workers, i, len(st.RoundCuts), len(exact))
					}
					for r, want := range exact {
						if got := st.RoundCuts[r]; got != want {
							t.Fatalf("workers=%d step %d round %d: reported cut %g, partition.Cut %g", workers, i, r+1, got, want)
						}
					}
					sameCut(t, "CutAfter vs oracle", st.CutAfter, partition.Cut(g, a))
				}
				checkGains(i, i%8 >= 4) // loose for four steps, strict for four
			}
		}
	})
}

// FuzzRefineSchedule: refine.Drive's exits change no result. A warm
// refining engine at 1, 2 and 4 workers absorbs random edit bursts on a
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
		var g0 *graph.Graph
		var a0 *partition.Assignment
		if grid {
			side := 6 + int(uint64(seed)%12)
			g0 = graph.Grid(side, side)
			part, err := spectral.RSB(g0, p, spectral.Options{Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			a0 = &partition.Assignment{Part: part, P: p}
		} else {
			g0, a0 = editableGraph(t, 60+int(uint64(seed)%300), p, seed)
		}
		if frac {
			fractionalWeights(g0, rand.New(rand.NewSource(seed^0x5c4)))
		}
		for _, workers := range []int{1, 2, 4} {
			g, a, gR, aR := g0.Clone(), a0.Clone(), g0.Clone(), a0.Clone()
			e := New(g, Options{Refine: true, Parallelism: workers})
			ref := New(gR, Options{Parallelism: 1})
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
					t.Fatalf("workers=%d step %d: errors %v vs %v", workers, i, err, errR)
				}
				if err != nil {
					break
				}
				cut := scheduleReference(t, gR, aR)
				if !slices.Equal(a.Part, aR.Part) || st.CutAfter.TotalWeight != cut {
					t.Fatalf("workers=%d step %d: Drive left cut %g (stop %s after %d rounds), the reference %g; assignments equal: %v",
						workers, i, st.CutAfter.TotalWeight, st.RefineStop, st.RefineRounds, cut, slices.Equal(a.Part, aR.Part))
				}
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
		c, err := refine.Gains(g, a, strict)
		if err != nil {
			t.Fatal(err)
		}
		prob, pairs := refine.Formulate(c)
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
