package igp

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/partition"
)

// equivalenceConfigs are seeded workloads on which the balance and
// refinement LPs have unique optima, so every correct solver must
// produce bit-identical end-to-end results. (At larger P the flow LPs
// develop alternate optima and different — equally optimal — solvers
// may legitimately move different vertices; those configurations are
// covered by the invariant test below instead.) The list was verified
// against every built-in and is deterministic: mesh generation
// (whose cavity construction once leaked map iteration order — see
// mesh.TestGenerationDeterministicInSeed), RSB and every solver are
// seed-stable. {4,1}, {4,7} and {5,6} left the list when the network
// simplex arrived: each has one LP on which it reaches a different vertex
// of the same optimal face than the tableau solvers do. {4,3} left when
// the adaptive strict switch arrived: its second round is strict, and on
// that refine LP the two solvers again pick different optimal vertices
// (both cuts 150, PerPart differs).
var equivalenceConfigs = []struct {
	p    int
	seed int64
}{
	{3, 1}, {3, 2}, {3, 3},
	{6, 6},
}

// TestSolverEquivalenceEndToEnd runs the full four-phase pipeline under
// every registered solver on seeded meshes and asserts identical
// assignments and cuts — the engine-level counterpart of the lp-level
// agreement fuzz, locking in that a solver swap cannot change pipeline
// results where the LP solutions are unique.
func TestSolverEquivalenceEndToEnd(t *testing.T) {
	for _, cfg := range equivalenceConfigs {
		seq, err := PaperMeshA(cfg.seed)
		if err != nil {
			t.Fatal(err)
		}
		base, err := PartitionRSB(seq.Base, cfg.p, cfg.seed)
		if err != nil {
			t.Fatal(err)
		}
		g := seq.Steps[0].Graph
		var refName string
		var refPart []int32
		var refCut CutStats
		for _, name := range SolverNames() {
			a := base.Clone()
			if _, err := Repartition(context.Background(), g, a,
				WithRefine(), WithSolver(name)); err != nil {
				t.Fatalf("P=%d seed=%d %s: %v", cfg.p, cfg.seed, name, err)
			}
			cut := Cut(g, a)
			if refPart == nil {
				refName, refPart, refCut = name, append([]int32(nil), a.Part...), cut
				continue
			}
			if !reflect.DeepEqual(cut, refCut) {
				t.Errorf("P=%d seed=%d: %s cut %+v != %s cut %+v",
					cfg.p, cfg.seed, name, cut, refName, refCut)
			}
			if !reflect.DeepEqual(refPart, a.Part) {
				t.Errorf("P=%d seed=%d: %s assignment diverges from %s",
					cfg.p, cfg.seed, name, refName)
			}
		}
	}
}

// TestSolverEquivalenceInvariants covers the configurations where
// alternate LP optima allow solvers to move different vertices: every
// registered solver must still deliver the same *contract* — exact
// balance, a refined cut no worse than the pre-balance cut, and a valid
// assignment — on the paper's P=32 workload.
func TestSolverEquivalenceInvariants(t *testing.T) {
	for _, seed := range []int64{1994, 7, 42} {
		seq, err := PaperMeshA(seed)
		if err != nil {
			t.Fatal(err)
		}
		base, err := PartitionRSB(seq.Base, 32, seed)
		if err != nil {
			t.Fatal(err)
		}
		g := seq.Steps[0].Graph
		for _, name := range SolverNames() {
			a := base.Clone()
			st, err := Repartition(context.Background(), g, a,
				WithRefine(), WithSolver(name))
			if err != nil {
				t.Fatalf("seed=%d %s: %v", seed, name, err)
			}
			if err := a.Validate(g); err != nil {
				t.Fatalf("seed=%d %s: %v", seed, name, err)
			}
			targets := partition.Targets(g.NumVertices(), a.P)
			for j, size := range a.Sizes(g) {
				if size != targets[j] {
					t.Fatalf("seed=%d %s: partition %d has %d vertices, want %d",
						seed, name, j, size, targets[j])
				}
			}
			if st.CutAfter.TotalWeight > st.CutBefore.TotalWeight {
				t.Fatalf("seed=%d %s: refinement worsened the cut: %g > %g",
					seed, name, st.CutAfter.TotalWeight, st.CutBefore.TotalWeight)
			}
		}
	}
}

// TestEnginePersistenceIsPerformanceOnly: for every registered solver, a
// long-lived engine (one LP session whose arenas persist across
// Repartition calls) must produce exactly the assignments of one-shot
// calls (fresh engine, fresh session, every call) over a whole
// perturbation sequence — nothing but capacity may survive a call.
func TestEnginePersistenceIsPerformanceOnly(t *testing.T) {
	for _, seed := range []int64{1994, 7, 42} {
		seq, err := PaperMeshA(seed)
		if err != nil {
			t.Fatal(err)
		}
		base, err := PartitionRSB(seq.Base, 8, seed)
		if err != nil {
			t.Fatal(err)
		}
		g := seq.Steps[0].Graph
		for _, name := range SolverNames() {
			aWarm := base.Clone()
			aCold := base.Clone()
			eng, err := NewEngine(g, WithRefine(), WithSolver(name))
			if err != nil {
				t.Fatal(err)
			}
			for call := 0; call < 5; call++ {
				perturbAssignment(aWarm, 25)
				perturbAssignment(aCold, 25)
				_, errW := eng.Repartition(context.Background(), aWarm)
				_, errC := Repartition(context.Background(), g, aCold,
					WithRefine(), WithSolver(name))
				if (errW == nil) != (errC == nil) {
					t.Fatalf("seed=%d %s call %d: error mismatch: %v vs %v", seed, name, call, errW, errC)
				}
				if errW != nil {
					t.Skipf("seed=%d %s call %d: infeasible on this sequence: %v", seed, name, call, errW)
				}
				if !reflect.DeepEqual(aWarm.Part, aCold.Part) {
					t.Fatalf("seed=%d %s call %d: persistent engine diverges from one-shot", seed, name, call)
				}
			}
		}
	}
}

// perturbAssignment deterministically unbalances a: the first n
// vertices currently in partition 0 move to partition 1.
func perturbAssignment(a *Assignment, n int) {
	moved := 0
	for v := range a.Part {
		if a.Part[v] == 0 && moved < n {
			a.Part[v] = 1
			moved++
		}
	}
}
