package bench

import (
	"strings"
	"testing"

	"repro/internal/mesh"
)

// smallConfig keeps unit tests fast: small meshes, few partitions, no
// simulation where not needed.
func smallSequence(t *testing.T) *mesh.Sequence {
	t.Helper()
	seq, err := mesh.GenerateChained(400, []int{15, 20}, 3)
	if err != nil {
		t.Fatal(err)
	}
	return seq
}

func TestRunTableSmall(t *testing.T) {
	seq := smallSequence(t)
	cfg := Config{Seed: 3, P: 8, Ranks: 4}
	res, err := runTable("small", seq, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Steps) != 2 {
		t.Fatalf("steps = %d, want 2", len(res.Steps))
	}
	for i, s := range res.Steps {
		if s.SB.Cut.Total <= 0 || s.IGP.Cut.Total <= 0 || s.IGPR.Cut.Total <= 0 {
			t.Fatalf("step %d: zero cut recorded", i)
		}
		// IGPR must not be worse than IGP (same start, plus refinement).
		if s.IGPR.Cut.Total > s.IGP.Cut.Total {
			t.Fatalf("step %d: IGPR cut %d > IGP cut %d", i, s.IGPR.Cut.Total, s.IGP.Cut.Total)
		}
		if s.IGP.TimeSeq <= 0 || s.SB.TimeSeq <= 0 {
			t.Fatalf("step %d: missing timings", i)
		}
		if s.IGP.Speedup <= 0 {
			t.Fatalf("step %d: missing simulated speedup", i)
		}
		if s.IGP.LPVars <= 0 || s.IGP.LPCons <= 0 {
			t.Fatalf("step %d: missing LP size", i)
		}
	}
	text := Format(res)
	for _, want := range []string{"SB", "IGP", "IGPR", "Cut", "Initial graph"} {
		if !strings.Contains(text, want) {
			t.Fatalf("formatted table missing %q:\n%s", want, text)
		}
	}
}

func TestRunTableSkipSim(t *testing.T) {
	seq := smallSequence(t)
	cfg := Config{Seed: 3, P: 8, Ranks: 4, SkipSim: true}
	res, err := runTable("small", seq, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps[0].IGP.Speedup != 0 || res.Steps[0].IGP.Sim1 != 0 {
		t.Fatal("SkipSim should suppress simulation")
	}
}

func TestSpeedupCurveMonotoneShape(t *testing.T) {
	seq, err := mesh.GenerateChained(600, []int{25}, 5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Seed: 5, P: 8}
	pts, err := SpeedupCurve(seq, cfg, []int{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	if pts[0].Speedup != 1 {
		t.Fatalf("1-rank speedup = %g, want 1", pts[0].Speedup)
	}
	if pts[2].Speedup <= pts[0].Speedup {
		t.Fatalf("4-rank speedup %.2f not above 1", pts[2].Speedup)
	}
	if pts[1].Messages == 0 {
		t.Fatal("2-rank run sent no messages")
	}
	if out := FormatSpeedup(pts, "test"); !strings.Contains(out, "Ranks") {
		t.Fatal("format missing header")
	}
}

// TestSpeedupInPaperBand asserts the paper's §4 claim, "a speedup of
// around 15 to 20 on a 32 node CM-5", on the table igpbench -table speedup
// prints: IGPR on mesh A's first refinement at seed 1994, P = 32.
func TestSpeedupInPaperBand(t *testing.T) {
	seq, err := mesh.PaperSequenceA(1994)
	if err != nil {
		t.Fatal(err)
	}
	pts, err := SpeedupCurve(seq, Config{Seed: 1994, P: 32}, []int{1, 32})
	if err != nil {
		t.Fatal(err)
	}
	if s := pts[1].Speedup; s < 15 || s > 20 {
		t.Fatalf("32-rank simulated speedup %.2f (T1 %v, T32 %v), want the paper's 15–20", s, pts[0].SimTime, pts[1].SimTime)
	}
}

func TestLPSizeIndependence(t *testing.T) {
	cfg := Config{Seed: 7, P: 8, SkipSim: true}
	rows, err := LPSizeTable([]int{300, 900}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Tripling |V| must not triple the LP: size is a function of P and
	// partition adjacency only.
	if rows[1].LPVars > 2*rows[0].LPVars+8 {
		t.Fatalf("LP vars grew with |V|: %d → %d", rows[0].LPVars, rows[1].LPVars)
	}
	if out := FormatLPSize(rows, 8); !strings.Contains(out, "pivots") {
		t.Fatal("format missing header")
	}
}

func TestRefineComparison(t *testing.T) {
	seq := smallSequence(t)
	cfg := Config{Seed: 3, P: 8, SkipSim: true}
	q, err := RefineComparison(seq, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if q.CutIGPR > q.CutIGP {
		t.Fatalf("IGPR cut %d worse than IGP %d", q.CutIGPR, q.CutIGP)
	}
	if q.CutGreedy > q.CutIGP {
		t.Fatalf("greedy made the cut worse: %d vs %d", q.CutGreedy, q.CutIGP)
	}
	if q.CutSB <= 0 {
		t.Fatal("missing SB cut")
	}
}

func TestBaselinesTable(t *testing.T) {
	seq := smallSequence(t)
	cfg := Config{Seed: 3, P: 8, SkipSim: true}
	rows, err := Baselines(seq, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	for _, r := range rows {
		if r.Cut.Total <= 0 || r.Time <= 0 {
			t.Fatalf("row %q incomplete: %+v", r.Name, r)
		}
		if !r.Balance {
			t.Fatalf("baseline %q produced unbalanced partitions", r.Name)
		}
	}
	if out := FormatBaselines(rows, 8); !strings.Contains(out, "RCB") {
		t.Fatal("format missing RCB row")
	}
}
