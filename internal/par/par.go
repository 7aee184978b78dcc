// Package par holds the two arena primitives the engine's kernels share:
// Sized, which grows a vertex-indexed arena with the graph while keeping
// its content, and Stamps, a generation-stamped marker set that dedups
// vertices per pass without an O(n) clear. Every kernel runs on the
// calling goroutine; the name is kept so the import path stays stable.
package par

// Sized returns s with length n and its content kept — how every arena
// indexed by vertex follows the graph's order. A reallocation past 1024
// slots rounds the capacity up to the next multiple of 1024, so an arena
// behind a mesh that grows by a few vertices per call is re-made once per
// 1024 of them instead of on every call, and never holds more than that
// beyond what is used; a smaller one (a small graph, P-indexed scratch)
// is made exact — re-making it costs nothing and spare slots would show
// in the live heap. Slots past the old length read zero unless s was
// longer before; callers that need another initial value fill them.
func Sized[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	c := n
	if n > 1024 {
		c = (n + 1023) &^ 1023
	}
	grown := make([]T, n, c)
	copy(grown, s)
	return grown
}

// Stamps is a reusable generation-stamped marker set over a dense index
// range — the dedup primitive of the repository's graph kernels.
// Advancing the generation (Next) invalidates all marks in O(1), so a
// kernel can dedup per call without an O(n) clear; slots grow to the
// largest index range seen and are then reused.
type Stamps struct {
	s   []uint32
	gen uint32
}

// Grow extends the slot range to cover indices [0, n).
func (st *Stamps) Grow(n int) {
	if len(st.s) < n {
		st.s = Sized(st.s, n)
	}
}

// Next starts a new generation, invalidating every mark. On the (rare)
// 2^32nd call the counter wraps and the slots are cleared so a stamp
// from exactly 2^32 generations ago cannot masquerade as current.
func (st *Stamps) Next() {
	st.gen++
	if st.gen == 0 {
		for i := range st.s {
			st.s[i] = 0
		}
		st.gen = 1
	}
}

// Marked reports whether i has been marked this generation.
func (st *Stamps) Marked(i int32) bool { return st.s[i] == st.gen }

// TryMark marks i, reporting whether this call was the first this
// generation.
func (st *Stamps) TryMark(i int32) bool {
	if st.s[i] == st.gen {
		return false
	}
	st.s[i] = st.gen
	return true
}
