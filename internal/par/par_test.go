package par

import (
	"sync/atomic"
	"testing"
)

func checkCover(t *testing.T, rs []Range, n int) {
	t.Helper()
	if len(rs) == 0 {
		t.Fatalf("no ranges for n=%d", n)
	}
	pos := 0
	for i, r := range rs {
		if r.Lo != pos {
			t.Fatalf("range %d starts at %d, want %d (ranges %v)", i, r.Lo, pos, rs)
		}
		if r.Hi < r.Lo {
			t.Fatalf("range %d inverted: %+v", i, r)
		}
		pos = r.Hi
	}
	if pos != n && !(n <= 0 && pos == 0) {
		t.Fatalf("ranges cover [0,%d), want [0,%d): %v", pos, n, rs)
	}
}

func TestSplitCoversAndBalances(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 7, 100, 101} {
		for _, w := range []int{1, 2, 3, 8, 200} {
			rs := Split(nil, n, w)
			checkCover(t, rs, n)
			if n > 0 {
				want := w
				if want > n {
					want = n
				}
				if len(rs) != want {
					t.Fatalf("Split(%d,%d) produced %d ranges, want %d", n, w, len(rs), want)
				}
				for _, r := range rs {
					if r.Len() < n/want || r.Len() > n/want+1 {
						t.Fatalf("Split(%d,%d): unbalanced range %+v", n, w, r)
					}
				}
			}
		}
	}
}

// TestWorkersGate pins the fork gate: one worker configured, or a region
// under its threshold, is one shard; anything else forks procs wide.
func TestWorkersGate(t *testing.T) {
	for _, tc := range []struct{ procs, units, min, want int }{
		{-3, 1000, 48, 1}, {0, 1000, 48, 1}, {1, 1000, 48, 1}, // procs <= 1
		{8, 47, 48, 1}, {8, 0, 48, 1}, {2, 255, 256, 1}, // units < min
		{8, 48, 48, 8}, {8, 1000, 48, 8}, {2, 256, 256, 2}, {3, 0, 0, 3},
	} {
		if got := Workers(tc.procs, tc.units, tc.min); got != tc.want {
			t.Errorf("Workers(%d, %d, %d) = %d, want %d", tc.procs, tc.units, tc.min, got, tc.want)
		}
	}
}

func TestSplitDeterministic(t *testing.T) {
	a := Split(nil, 1234, 7)
	b := Split(nil, 1234, 7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Split is not deterministic")
		}
	}
}

func TestSplitByWeightCovers(t *testing.T) {
	// A skewed prefix-sum: one heavy vertex among light ones.
	cum := []int32{0, 1, 2, 103, 104, 105, 106, 107}
	for _, w := range []int{1, 2, 3, 10} {
		rs := SplitByWeight(nil, cum, w)
		checkCover(t, rs, len(cum)-1)
	}
	// The heavy vertex must not drag its whole neighborhood into one
	// shard when two workers split ~107 weight: the cut lands right
	// after the heavy vertex.
	rs := SplitByWeight(nil, cum, 2)
	if len(rs) != 2 || rs[0].Hi != 3 {
		t.Fatalf("weighted split misplaced the cut: %v", rs)
	}
	// Empty input still yields one (empty) range.
	rs = SplitByWeight(nil, []int32{0}, 4)
	checkCover(t, rs, 0)
}

type countTask struct {
	hits  []int32
	total atomic.Int64
}

func (t *countTask) Do(w int) {
	t.hits[w]++
	t.total.Add(1)
}

func TestGroupRunsEveryWorker(t *testing.T) {
	var g Group
	ct := &countTask{hits: make([]int32, 8)}
	for iter := 0; iter < 50; iter++ {
		g.Run(8, ct)
	}
	for w, h := range ct.hits {
		if h != 50 {
			t.Fatalf("worker %d ran %d times, want 50", w, h)
		}
	}
	if got := ct.total.Load(); got != 400 {
		t.Fatalf("total %d, want 400", got)
	}
	if len(g.Times()) < 8 {
		t.Fatalf("Times has %d slots, want >= 8", len(g.Times()))
	}
	g.Reset()
	for _, d := range g.Times() {
		if d != 0 {
			t.Fatal("Reset left a non-zero accumulator")
		}
	}
}

func TestGroupSequentialPath(t *testing.T) {
	var g Group
	ct := &countTask{hits: make([]int32, 1)}
	g.Run(1, ct)
	g.Run(0, ct) // clamped to 1
	if ct.hits[0] != 2 {
		t.Fatalf("worker 0 ran %d times, want 2", ct.hits[0])
	}
}

func TestGroupRunSteadyStateAllocs(t *testing.T) {
	var g Group
	ct := &countTask{hits: make([]int32, 8)}
	g.Run(8, ct)
	allocs := testing.AllocsPerRun(50, func() { g.Run(8, ct) })
	if allocs > 0 {
		t.Fatalf("warm Group.Run allocates %.1f objects/op, want 0", allocs)
	}
}

// stampTask has every worker race to claim all slots; the claimed sets
// must partition the index range (each slot exactly one winner).
type stampTask struct {
	st   *Stamps
	n    int
	wins []atomic.Int32
}

func (t *stampTask) Do(w int) {
	for i := 0; i < t.n; i++ {
		if t.st.Claim(int32(i)) {
			t.wins[i].Add(1)
		}
	}
}

func TestStampsClaimOneWinner(t *testing.T) {
	var st Stamps
	const n = 4096
	st.Grow(n)
	var g Group
	for gen := 0; gen < 3; gen++ {
		st.Next()
		task := &stampTask{st: &st, n: n, wins: make([]atomic.Int32, n)}
		g.Run(8, task)
		for i := range task.wins {
			if got := task.wins[i].Load(); got != 1 {
				t.Fatalf("gen %d: slot %d claimed %d times, want 1", gen, i, got)
			}
			if !st.Marked(int32(i)) {
				t.Fatalf("gen %d: slot %d not marked after claim", gen, i)
			}
		}
	}
}

// TestSizedRoundsCapacity: growth keeps the content, reallocates to the
// next multiple of 1024 slots (past 1024; exact below) and then serves
// the growth up to that capacity — the +40-vertices-per-call mesh re-makes
// nothing.
func TestSizedRoundsCapacity(t *testing.T) {
	s := Sized([]int32{7, 8, 9}, 1500)
	if len(s) != 1500 || cap(s) != 2048 || s[0] != 7 || s[2] != 9 || s[3] != 0 {
		t.Fatalf("len %d cap %d head %v", len(s), cap(s), s[:4])
	}
	s[1499] = 5
	if g := Sized(s, 2048); &g[0] != &s[0] || len(g) != 2048 || g[1499] != 5 {
		t.Fatal("growth inside the rounded capacity reallocated or lost content")
	}
	if g := Sized(s, 2049); cap(g) != 3072 || g[1499] != 5 {
		t.Fatalf("cap %d after growing past the capacity, want 3072", cap(g))
	}
	if g := Sized(s, 10); len(g) != 10 || &g[0] != &s[0] {
		t.Fatal("shrinking must reslice")
	}
	if g := Sized([]bool(nil), 36); len(g) != 36 || cap(g) != 36 {
		t.Fatalf("a small arena must be exact, got cap %d", cap(g))
	}
}

func TestStampsTryMarkAndWrap(t *testing.T) {
	var st Stamps
	st.Grow(4)
	st.Next()
	if !st.TryMark(2) || st.TryMark(2) {
		t.Fatal("TryMark must succeed exactly once per generation")
	}
	if st.Marked(0) {
		t.Fatal("unmarked slot reports marked")
	}
	st.Next()
	if st.Marked(2) {
		t.Fatal("Next did not invalidate marks")
	}
	// Force the wrap path: a stale stamp equal to the post-wrap
	// generation must not masquerade as current.
	st.s[3] = 1
	st.gen = ^uint32(0)
	st.Next()
	if st.gen != 1 {
		t.Fatalf("gen after wrap = %d, want 1", st.gen)
	}
	if st.Marked(3) {
		t.Fatal("stale stamp survived the wrap clear")
	}
	// Grow after use keeps existing marks.
	st.TryMark(1)
	st.Grow(16)
	if !st.Marked(1) || st.Marked(8) {
		t.Fatal("Grow corrupted marks")
	}
}
