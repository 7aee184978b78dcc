package igp

import (
	"context"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// TestWithParallelismValidation: worker counts below 1 are constructor
// errors, valid counts are accepted eagerly.
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

// TestParallelismEquivalenceEndToEnd is the acceptance criterion: on
// the solver-equivalence seeds, the full IGPR pipeline must produce
// bit-identical assignments and cuts for every tested worker count.
// Unlike solver swaps — which only guarantee identity where LP optima
// are unique — parallelism never touches the LP path, so identity must
// hold on every configuration.
func TestParallelismEquivalenceEndToEnd(t *testing.T) {
	procsList := []int{1, 2, 7, runtime.GOMAXPROCS(0)}
	configs := append(equivalenceConfigs, struct {
		p    int
		seed int64
	}{32, 1994}) // the paper's P=32 workload: alternate optima allowed, parallelism identity still required
	for _, cfg := range configs {
		seq, err := PaperMeshA(cfg.seed)
		if err != nil {
			t.Fatal(err)
		}
		base, err := PartitionRSB(seq.Base, cfg.p, cfg.seed)
		if err != nil {
			t.Fatal(err)
		}
		g := seq.Steps[0].Graph
		var refPart []int32
		var refCut CutStats
		for _, procs := range procsList {
			a := base.Clone()
			if _, err := Repartition(context.Background(), g, a,
				WithRefine(), WithParallelism(procs)); err != nil {
				t.Fatalf("P=%d seed=%d procs=%d: %v", cfg.p, cfg.seed, procs, err)
			}
			cut := Cut(g, a)
			if refPart == nil {
				refPart, refCut = append([]int32(nil), a.Part...), cut
				continue
			}
			if !reflect.DeepEqual(cut, refCut) {
				t.Errorf("P=%d seed=%d procs=%d: cut %+v != one-worker cut %+v",
					cfg.p, cfg.seed, procs, cut, refCut)
			}
			if !reflect.DeepEqual(refPart, a.Part) {
				t.Errorf("P=%d seed=%d procs=%d: assignment diverges from the one-worker run",
					cfg.p, cfg.seed, procs)
			}
		}
	}
}

// TestParallelismStatsSurface: the public Stats must carry the resolved
// worker count and, for parallel runs, a per-worker busy roll-up that
// survives the engine's stats-arena reuse.
func TestParallelismStatsSurface(t *testing.T) {
	seq, err := PaperMeshA(7)
	if err != nil {
		t.Fatal(err)
	}
	base, err := PartitionRSB(seq.Base, 8, 7)
	if err != nil {
		t.Fatal(err)
	}
	g := seq.Steps[0].Graph
	eng, err := NewEngine(g, WithRefine(), WithParallelism(3))
	if err != nil {
		t.Fatal(err)
	}
	a := base.Clone()
	st, err := eng.Repartition(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	if st.Parallelism != 3 {
		t.Fatalf("Stats.Parallelism = %d, want 3", st.Parallelism)
	}
	if len(st.WorkerBusy) != 3 {
		t.Fatalf("Stats.WorkerBusy has %d slots, want 3", len(st.WorkerBusy))
	}
	var total time.Duration
	for _, d := range st.WorkerBusy {
		if d < 0 {
			t.Fatal("negative worker busy time")
		}
		total += d
	}
	if total <= 0 {
		t.Fatal("no worker busy time recorded on a parallel run")
	}

	// One worker reports Parallelism 1 and no breakdown.
	st1, err := Repartition(context.Background(), g, base.Clone(), WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	if st1.Parallelism != 1 || len(st1.WorkerBusy) != 0 {
		t.Fatalf("one-worker stats: Parallelism=%d, WorkerBusy=%v", st1.Parallelism, st1.WorkerBusy)
	}
}
