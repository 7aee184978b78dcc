package graph

import "slices"

// CSR is a compressed-sparse-row snapshot of a graph, the preferred form
// for read-only traversal-heavy kernels (spectral methods, layering).
// Dead vertices keep their slots with empty rows so vertex identifiers
// agree with the source graph.
//
// # Slotted layout
//
// Rows live in per-vertex slots with a little headroom: slot v occupies
// Adj[XAdj[v]:XAdj[v+1]], the live row is the prefix Adj[XAdj[v]:End[v]],
// and the tail of the slot is slack (filled with the sentinel -1 / weight
// 0, never read). The headroom is what makes the journal-driven partial
// patch (RefreshCSR) useful: a touched vertex whose new degree still fits
// its slot is rewritten in place, so refreshing after a small edit costs
// work proportional to the touched rows — not to the whole graph. XAdj
// stays monotone (slack included).
type CSR struct {
	XAdj []int32   // slot-start offsets, len Order()+1; XAdj[Order()] = len(Adj)
	End  []int32   // row-end offsets, len Order(); XAdj[v] ≤ End[v] ≤ XAdj[v+1]
	Adj  []Vertex  // concatenated adjacency rows plus slack
	EW   []float64 // edge weights parallel to Adj
	Live []bool    // liveness flags
	NumV int       // live vertex count
	NumE int       // undirected edge count

	// Patch bookkeeping: the graph that built this snapshot and the edit
	// epoch it reflects. RefreshCSR patches only when both still match up.
	// The journal-read scratch lives on the snapshot — not on the shared
	// Graph — so engines that each own a snapshot of one quiescent graph
	// can refresh concurrently (ToCSRInto stays read-only on the graph).
	owner     *Graph
	snapEpoch uint64
	patchBuf  []Vertex

	// Adaptive headroom bookkeeping (reset at every rebuild): the largest
	// touched set a successful patch processed, whether a patch was ever
	// abandoned because a row outgrew its slot, and whether the current
	// layout was packed with lean headroom. The policy is a pure function
	// of the snapshot's own refresh history, so identically edited graphs
	// still produce identical layouts.
	patchPeak int
	grewSlot  bool
	lean      bool
}

// slackSentinel fills unused slot tails so snapshot memory stays
// deterministic (two identically edited graphs produce byte-identical
// snapshot arrays, slack included).
const slackSentinel Vertex = -1

// csrPad returns the headroom arcs reserved after a row of degree d when
// its slot is (re)built: enough for a few incident-edge insertions before
// the slot overflows and forces a compacting rebuild, small enough that
// total slack stays a modest constant factor of the arc array.
func csrPad(d int) int { return 2 + d/4 }

// csrPadLean is the reduced headroom used at large orders when the
// observed churn is low: the ~25–40% arc overhead of csrPad is pure tax
// on cold traversals of paper-scale graphs, while a quiet refresh
// history shows the slack is rarely consumed.
func csrPadLean(d int) int { return 1 + d/8 }

// csrLeanOrder is the order at and above which a rebuild considers the
// lean layout; csrLeanChurnDiv scales the churn evidence (a snapshot
// whose largest patch touched more than order/csrLeanChurnDiv rows keeps
// the full headroom).
const (
	csrLeanOrder    = 1 << 17
	csrLeanChurnDiv = 64
)

// pad returns the slot headroom for degree d under the snapshot's
// current layout policy.
func (c *CSR) pad(d int) int {
	if c.lean {
		return csrPadLean(d)
	}
	return csrPad(d)
}

// csrMaxChurn caps how many distinct journaled vertices a partial patch
// will process for an order-n snapshot; beyond it a full rebuild is
// cheaper (and re-establishes every slot's headroom).
func csrMaxChurn(n int) int { return 32 + n/4 }

// ToCSR builds a CSR snapshot. Rows follow the graph's current adjacency
// order; call SortAdjacency first for fully deterministic layouts.
func (g *Graph) ToCSR() *CSR {
	return g.ToCSRInto(nil)
}

// ToCSRInto refreshes c to a snapshot of the graph's current state,
// reusing c's arrays when their capacity suffices; c == nil allocates a
// fresh snapshot. It returns the refreshed snapshot (always c when c is
// non-nil). Long-lived consumers refresh in place each time the graph's
// epoch moves and pay no steady-state allocation; when the edit journal
// still covers the gap since c was last refreshed, only the touched
// rows are rewritten (see RefreshCSR).
func (g *Graph) ToCSRInto(c *CSR) *CSR {
	c, _ = g.RefreshCSR(c)
	return c
}

// RefreshCSR is ToCSRInto with the refresh strategy reported: patched is
// true when the snapshot was brought up to date by the journal-driven
// partial patch (rewriting only the rows of vertices touched since the
// snapshot's epoch), false when a full rebuild ran. A full rebuild
// happens when c is nil or was built from another graph, when the
// bounded journal no longer reaches back to c's epoch, when a touched
// row outgrew its slot headroom (the rebuild re-packs every slot with
// fresh headroom — the compaction step of the slack scheme), or when the
// touched set exceeds the churn threshold and patching would cost more
// than rebuilding. Either way the resulting snapshot's logical content
// (every row, weight, liveness flag and count) is identical; only the
// slack layout may differ.
func (g *Graph) RefreshCSR(c *CSR) (snapshot *CSR, patched bool) {
	if c == nil || c.owner != g || c.snapEpoch > g.epoch {
		return g.buildCSR(c), false
	}
	if c.snapEpoch == g.epoch {
		return c, true // already current: the zero-cost patch
	}
	touched, exact := g.TouchedSince(c.snapEpoch, c.patchBuf[:0])
	c.patchBuf = touched[:0]
	if !exact {
		return g.buildCSR(c), false
	}
	// Dedup in place: the journal records every touch, the patch wants
	// each row once. The sort also groups brand-new vertices (ids past
	// the old snapshot's order) at the tail.
	slices.Sort(touched)
	touched = slices.Compact(touched)
	oldN := c.Order()
	if len(touched) > csrMaxChurn(g.Order()) {
		return g.buildCSR(c), false
	}
	// Pass 1: every pre-existing touched row must fit its slot, or the
	// patch is abandoned (in favor of a compacting rebuild) before
	// mutating anything, keeping the rewrite pass below branch-free.
	for _, v := range touched {
		if int(v) >= oldN {
			break // sorted: only new vertices follow
		}
		if int32(len(g.adj[v])) > c.XAdj[v+1]-c.XAdj[v] {
			// A row outgrew its headroom: remember that before the
			// compacting rebuild so the next layout keeps full pads.
			c.grewSlot = true
			return g.buildCSR(c), false
		}
	}
	if len(touched) > c.patchPeak {
		c.patchPeak = len(touched)
	}
	// Pass 2: rewrite touched rows in place.
	for _, v := range touched {
		if int(v) >= oldN {
			break
		}
		start := c.XAdj[v]
		row := g.adj[v]
		n := copy(c.Adj[start:c.XAdj[v+1]], row)
		copy(c.EW[start:], g.ew[v][:n])
		end := start + int32(n)
		for i := end; i < c.XAdj[v+1]; i++ {
			c.Adj[i] = slackSentinel
			c.EW[i] = 0
		}
		c.End[v] = end
		c.Live[v] = g.alive[v]
	}
	// Pass 3: append slots for vertices added since the snapshot. Every
	// id in [oldN, Order()) was journaled by AddVertex, so iterating the
	// id range directly is exact.
	if n := g.Order(); n > oldN {
		c.XAdj = c.XAdj[:len(c.XAdj)-1]
		for v := oldN; v < n; v++ {
			c.appendSlot(g, Vertex(v))
		}
		c.XAdj = append(c.XAdj, int32(len(c.Adj)))
	}
	c.NumV = g.NumVertices()
	c.NumE = g.m
	c.snapEpoch = g.epoch
	return c, true
}

// appendSlot appends vertex v's row (plus headroom) as the next slot.
// The caller has truncated the final XAdj entry and restores it after.
func (c *CSR) appendSlot(g *Graph, v Vertex) {
	c.XAdj = append(c.XAdj, int32(len(c.Adj)))
	c.Adj = append(c.Adj, g.adj[v]...)
	c.EW = append(c.EW, g.ew[v]...)
	c.End = append(c.End, int32(len(c.Adj)))
	if g.alive[v] {
		for pad := c.pad(len(g.adj[v])); pad > 0; pad-- {
			c.Adj = append(c.Adj, slackSentinel)
			c.EW = append(c.EW, 0)
		}
	}
	c.Live = append(c.Live, g.alive[v])
}

// RebuildCSRInto is ToCSRInto with the journal-driven patch bypassed:
// it always performs the full rebuild. The engine's Options.FullRefresh
// reference path and the patch-equivalence tests use it as the oracle.
func (g *Graph) RebuildCSRInto(c *CSR) *CSR { return g.buildCSR(c) }

// buildCSR is the full rebuild: every slot re-packed in vertex order
// with fresh headroom (dead vertices get none — they can never grow).
// The headroom policy is adaptive: at paper-scale orders a snapshot
// whose refresh history shows low churn — no slot ever overflowed, the
// largest patch touched a small fraction of the rows — is packed with
// lean pads, reclaiming most of the slack tax on cold traversals; any
// overflow or heavy churn since the last rebuild restores full pads.
func (g *Graph) buildCSR(c *CSR) *CSR {
	n := g.Order()
	if c == nil {
		c = &CSR{
			XAdj: make([]int32, 0, n+1),
			End:  make([]int32, 0, n),
			Adj:  make([]Vertex, 0, 2*g.m+csrPad(0)*n),
			EW:   make([]float64, 0, 2*g.m+csrPad(0)*n),
			Live: make([]bool, 0, n),
		}
	}
	c.lean = n >= csrLeanOrder && !c.grewSlot && c.patchPeak*csrLeanChurnDiv <= n
	c.patchPeak = 0
	c.grewSlot = false
	c.XAdj = c.XAdj[:0]
	c.End = c.End[:0]
	c.Adj = c.Adj[:0]
	c.EW = c.EW[:0]
	c.Live = c.Live[:0]
	c.NumV = g.NumVertices()
	c.NumE = g.m
	for v := 0; v < n; v++ {
		c.appendSlot(g, Vertex(v))
	}
	c.XAdj = append(c.XAdj, int32(len(c.Adj)))
	c.owner = g
	c.snapEpoch = g.epoch
	return c
}

// Order returns the number of vertex slots (including dead ones).
func (c *CSR) Order() int { return len(c.XAdj) - 1 }

// Row returns the neighbor slice of v.
func (c *CSR) Row(v Vertex) []Vertex { return c.Adj[c.XAdj[v]:c.End[v]] }

// RowWeights returns the edge-weight slice of v, parallel to Row(v).
func (c *CSR) RowWeights(v Vertex) []float64 { return c.EW[c.XAdj[v]:c.End[v]] }

// Degree returns the degree of v.
func (c *CSR) Degree(v Vertex) int { return int(c.End[v] - c.XAdj[v]) }
