package par

import "testing"

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
