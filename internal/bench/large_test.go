package bench

import (
	"strings"
	"testing"
)

// TestMultilevelTableContract runs the large-graph tier at a test-sized
// n and worker counts 1 and 2: the table's own assertions (validity,
// exact balance, the idle call skips the V-cycle, the cold and warm calls
// run it over a real hierarchy, grid warm repairs it, the second count
// reproduces the first) are the contract; here we additionally pin the
// row layout igpbench prints.
func TestMultilevelTableContract(t *testing.T) {
	rows, err := MultilevelTable(Config{Seed: 1994, P: 8}, 4000, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	wantModes := []string{"vcycle-cold", "vcycle-idle", "vcycle-warm",
		"vcycle-cold", "vcycle-idle", "vcycle-warm"}
	if len(rows) != 2*len(wantModes) {
		t.Fatalf("got %d rows, want %d", len(rows), 2*len(wantModes))
	}
	for i, r := range rows {
		if r.Mode != wantModes[i%len(wantModes)] {
			t.Fatalf("row %d mode %q, want %q", i, r.Mode, wantModes[i%len(wantModes)])
		}
		if want := 1 + i/len(wantModes); r.Procs != want {
			t.Fatalf("row %d procs %d, want %d", i, r.Procs, want)
		}
		if !r.Balanced || r.Cut <= 0 || r.Time <= 0 {
			t.Fatalf("row %d not sane: %+v", i, r)
		}
		if r.Skipped != (r.Mode == "vcycle-idle") {
			t.Fatalf("row %d: skipped=%v in mode %s", i, r.Skipped, r.Mode)
		}
	}
	if rows[0].Workload != "grid" || rows[3].Workload != "powerlaw" {
		t.Fatalf("workload order changed: %q, %q", rows[0].Workload, rows[3].Workload)
	}
	// The steady-state grid warm call must take the journal-repair path
	// and be far cheaper than the cold build; the idle call, which runs
	// no V-cycle at all, cheaper still.
	if !rows[2].Repaired {
		t.Fatal("grid warm row did not repair the hierarchy")
	}
	if rows[2].Time > rows[0].Time || rows[1].Time > rows[0].Time {
		t.Fatalf("grid idle (%v) / warm (%v) not cheaper than cold (%v)", rows[1].Time, rows[2].Time, rows[0].Time)
	}
}

// TestSameOutcomeNamesTheRow feeds the cross-count comparison one
// doctored row per compared field: each must be an error naming that
// row's workload and mode, and a Time-only difference must pass.
func TestSameOutcomeNamesTheRow(t *testing.T) {
	first := []MultilevelRow{
		{Workload: "grid", Mode: "vcycle-cold", Procs: 1, Time: 9, Cut: 1721, Levels: 6},
		{Workload: "grid", Mode: "vcycle-idle", Procs: 1, Time: 2, Cut: 1721, Skipped: true},
		{Workload: "powerlaw", Mode: "vcycle-warm", Procs: 1, Time: 5, Cut: 21712, Levels: 4, Repaired: true},
	}
	again := func() []MultilevelRow {
		tier := append([]MultilevelRow(nil), first...)
		for i := range tier {
			tier[i].Procs, tier[i].Time = 2, tier[i].Time*3
		}
		return tier
	}
	if err := sameOutcome(first, again()); err != nil {
		t.Fatalf("only Time differs, got %v", err)
	}
	for _, doctor := range []func(r *MultilevelRow){
		func(r *MultilevelRow) { r.Cut++ },
		func(r *MultilevelRow) { r.Levels-- },
		func(r *MultilevelRow) { r.Repaired = !r.Repaired },
		func(r *MultilevelRow) { r.Skipped = !r.Skipped },
	} {
		tier := again()
		doctor(&tier[2])
		err := sameOutcome(first, tier)
		if err == nil || !strings.Contains(err.Error(), "powerlaw vcycle-warm differs at procs 2 from procs 1") {
			t.Fatalf("doctored row %+v: got %v", tier[2], err)
		}
	}
}
