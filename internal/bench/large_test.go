package bench

import (
	"strings"
	"testing"
)

// TestMultilevelTableContract runs the large-graph tier at a test-sized
// n: the table's own assertions (validity, exact balance, the idle call
// skips the V-cycle, the cold and warm calls run it over a real
// hierarchy, grid warm repairs it) are the contract; here we additionally
// pin the row layout igpbench prints.
func TestMultilevelTableContract(t *testing.T) {
	rows, err := MultilevelTable(Config{Seed: 1994, P: 8}, 4000)
	if err != nil {
		t.Fatal(err)
	}
	wantModes := []string{"vcycle-cold", "vcycle-idle", "vcycle-warm",
		"vcycle-cold", "vcycle-idle", "vcycle-warm"}
	if len(rows) != len(wantModes) {
		t.Fatalf("got %d rows, want %d", len(rows), len(wantModes))
	}
	for i, r := range rows {
		if r.Mode != wantModes[i] {
			t.Fatalf("row %d mode %q, want %q", i, r.Mode, wantModes[i])
		}
		if !r.Balanced || r.Cut <= 0 || r.Time <= 0 {
			t.Fatalf("row %d not sane: %+v", i, r)
		}
		if r.Skipped != (r.Mode == "vcycle-idle") {
			t.Fatalf("row %d: skipped=%v in mode %s", i, r.Skipped, r.Mode)
		}
		// The cold call allocates its hierarchy, and only the cold row
		// reads the live heap.
		if cold := r.Mode == "vcycle-cold"; (cold && r.Allocs == 0) || (r.HeapMB > 0) != cold {
			t.Fatalf("row %d: allocs %d, heap %.1f MB in mode %s", i, r.Allocs, r.HeapMB, r.Mode)
		}
	}
	table := FormatMultilevel(rows, 8)
	if header := strings.SplitN(table, "\n", 3)[1]; !strings.HasSuffix(strings.TrimSpace(header), "Skipped    Allocs  HeapMB") {
		t.Fatalf("table header %q does not end in the Allocs and HeapMB columns", header)
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
