// The connectivity table: what is known of every vertex's arcs by
// partition, so a move costs a read of the mover's row alone. It is the
// FM gain-update rule (k-way FM as in KaHIP, arXiv:1311.1714): when v
// moves from A to B, every neighbour u gets conn[u][A] −= w and
// conn[u][B] += w, and u's gains follow from its own entries, with no
// read of u's row. Edge weights are integers whose total fits int32
// (graph.MaxTotalEdgeWeight), and so is every sum of them — a coarse
// level's aggregated arc too — so every patched sum is exact and equals
// the one a row scan forms.
//
// Three callers keep one: the engine's sync (over its CSR snapshot, for
// every vertex, across calls), the V-cycle's per-level refiner
// (coarsen.Hierarchy, over a level graph, filled on demand) and Greedy.
package refine

import (
	"math/bits"

	"repro/internal/graph"
	"repro/internal/par"
)

// Conn keeps, for every vertex v, in — the weight of v's arcs into its
// own partition — and one entry per other partition v's arcs reach: that
// partition, the arcs' summed weight and their count (a zero-weight arc
// still makes v a boundary vertex). An interior vertex has no entries.
// Partitions are the owner's view, part: the assignment as far as the
// owner has applied it. A slot is stale — it holds nothing and takes no
// patch — until its vertex is filled from its row (Fill, FillGraph).
//
// A vertex's entries are the prefix of one block whose capacity is a
// function of their count (blockCap), so a block moves only when its
// count crosses a capacity step. Blocks are never split: a freed block
// goes on its capacity's free list, linked through its first entry's Part,
// and is reused before the arena grows. The arena therefore holds, of
// each capacity, only as many blocks as were once live at the same time:
// however long the churn, at most 3.5 times what a fill of every vertex
// at its largest entry count takes. Reset and Refill pack it afresh. The
// zero value is ready for Reset.
type Conn struct {
	vtx []connVertex // per vertex
	ent []ConnEntry  // the blocks

	free []int32     // free[c]: first free block of capacity c, -1 none
	row  []ConnEntry // fill's scratch: the new block
	at   []int32     // fill's scratch: at[q+2] = 1 + q's index in row, 0 none; q in [−2, P)
}

// connVertex is one vertex's slot: its weight into its own partition and
// its block. off is −1 while the slot is stale.
type connVertex struct{ in, off, size int32 }

// ConnEntry is one partition a vertex's arcs reach: their summed weight
// and count.
type ConnEntry struct{ Part, Wt, Arcs int32 }

// blockCap is the capacity of a block holding k entries: k up to 4, then
// the next of 6, 8, 12, 16, 24, … — at most a third more than it holds.
func blockCap(k int32) int32 {
	if k <= 4 {
		return k
	}
	b := bits.Len32(uint32(k - 1)) // 1<<b ≥ k
	if c := int32(3) << (b - 2); c >= k {
		return c
	}
	return 1 << b
}

// Grow readies the per-vertex slots for an order-n graph; new vertices
// have no arcs.
func (c *Conn) Grow(n int) {
	if old := len(c.vtx); old < n {
		c.vtx = par.Sized(c.vtx, n)
		clear(c.vtx[old:])
	}
}

// Reserve readies fill's partition index for ids in [−2, p); a fill finds
// any other id by a scan of its scratch.
func (c *Conn) Reserve(p int) {
	if len(c.at) < p+2 {
		c.at = make([]int32, p+2)
	}
}

// Reset readies the table for an order-n graph with every slot stale and
// the arena empty, its capacity kept: a vertex gets its entries when it is
// first filled, not from a pass over the whole graph.
func (c *Conn) Reset(n int) {
	c.Grow(n)
	for v := range c.vtx[:n] {
		c.vtx[v] = connVertex{off: -1}
	}
	c.ent = c.ent[:0]
	for k := range c.free {
		c.free[k] = -1
	}
}

// Entries returns v's entries.
func (c *Conn) Entries(v graph.Vertex) []ConnEntry {
	x := c.vtx[v]
	return c.ent[x.off : x.off+x.size]
}

// In returns the weight of v's arcs into its own partition.
func (c *Conn) In(v graph.Vertex) int32 { return c.vtx[v].in }

// Gain returns the cut gain of moving v, filled, to partition to (not
// its own): the weight of its arcs into to less in.
func (c *Conn) Gain(v graph.Vertex, to int32) int32 {
	for _, x := range c.Entries(v) {
		if x.Part == to {
			return x.Wt - c.vtx[v].in
		}
	}
	return -c.vtx[v].in
}

// alloc returns the first entry of a free block of capacity k > 0. The
// arena grows by an eighth at a time, where append would take a quarter
// or more.
func (c *Conn) alloc(k int32) int32 {
	if int(k) < len(c.free) && c.free[k] >= 0 {
		b := c.free[k]
		c.free[k] = c.ent[b].Part
		return b
	}
	b := len(c.ent)
	if b+int(k) > cap(c.ent) {
		grown := make([]ConnEntry, b, b+max(int(k), b/8, 64))
		copy(grown, c.ent)
		c.ent = grown
	}
	c.ent = c.ent[:b+int(k)]
	return int32(b)
}

// release puts the block at b, of capacity k, on its free list (none
// when k is 0).
func (c *Conn) release(b, k int32) {
	if k == 0 {
		return
	}
	for len(c.free) <= int(k) {
		c.free = append(c.free, -1)
	}
	c.ent[b].Part, c.free[k] = c.free[k], b
}

// resize gives u room for k entries, moving its block when k needs
// another capacity; the entries up to min(size, k) are kept.
func (c *Conn) resize(u graph.Vertex, k int32) {
	x := &c.vtx[u]
	if oc, nc := blockCap(x.size), blockCap(k); oc != nc {
		if nc > 0 {
			b := c.alloc(nc)
			if keep := min(x.size, k); keep > 0 { // (an empty block's off is stale)
				copy(c.ent[b:b+keep], c.ent[x.off:x.off+keep])
			}
			c.release(x.off, oc)
			x.off = b
		} else {
			c.release(x.off, oc)
		}
	}
	x.size = k
}

// Invalidate drops v's entries and marks its slot stale until the next
// fill: the engine's sync does this to a vertex whose row changed and
// which also moved, so one read of its row, when its move is applied,
// refills it — and the neighbours it shares a changed arc with patch
// nothing into it before then.
func (c *Conn) Invalidate(v graph.Vertex) {
	c.resize(v, 0)
	c.vtx[v] = connVertex{off: -1}
}

// Moved patches u's entries for a neighbour, joined by an arc of weight
// w, that moved from partition from to partition to ≠ from; pu is u's
// own partition. One scan of u's block finds both entries; the usual
// case on a boundary — the last arc into from becomes the first into
// to — relabels an entry in place. A stale slot takes no patch.
func (c *Conn) Moved(u graph.Vertex, pu, from, to, w int32) {
	x := &c.vtx[u]
	if x.off < 0 {
		return
	}
	fi, ti := int32(-1), int32(-1)
	for i := x.off; i < x.off+x.size; i++ {
		switch c.ent[i].Part {
		case from:
			fi = i
		case to:
			ti = i
		}
	}
	if to == pu {
		x.in += w
	} else if ti >= 0 {
		c.ent[ti].Wt += w
		c.ent[ti].Arcs++
	}
	switch {
	case from == pu:
		x.in -= w
	case c.ent[fi].Arcs > 1:
		c.ent[fi].Wt -= w
		c.ent[fi].Arcs--
	case to != pu && ti < 0:
		c.ent[fi] = ConnEntry{to, w, 1}
		return
	default: // from's last arc: its entry goes
		c.ent[fi] = c.ent[x.off+x.size-1]
		c.resize(u, x.size-1)
		return
	}
	if to != pu && ti < 0 {
		c.resize(u, x.size+1)
		c.ent[x.off+x.size-1] = ConnEntry{to, w, 1}
	}
}

// Stale reports whether v's slot waits for a fill.
func (c *Conn) Stale(v graph.Vertex) bool { return c.vtx[v].off < 0 }

// Shift applies v's own move from partition from to partition to, its
// neighbours being patched apart (Moved). Its entries hold the same
// partitions as before — its neighbours did not move — so they change in
// O(entries): the entry of v's new partition becomes in, and the old in,
// over deg minus the entries' arcs, becomes an entry.
func (c *Conn) Shift(v graph.Vertex, from, to, deg int32) {
	x := &c.vtx[v]
	inArcs, ti := deg, int32(-1)
	for i := x.off; i < x.off+x.size; i++ {
		inArcs -= c.ent[i].Arcs
		if c.ent[i].Part == to {
			ti = i
		}
	}
	old := ConnEntry{from, x.in, inArcs}
	x.in = 0
	switch {
	case ti >= 0:
		x.in = c.ent[ti].Wt
		if inArcs > 0 {
			c.ent[ti] = old
		} else {
			c.ent[ti] = c.ent[x.off+x.size-1]
			c.resize(v, x.size-1)
		}
	case inArcs > 0:
		c.resize(v, x.size+1)
		c.ent[x.off+x.size-1] = old
	}
}

// Move applies v's move on g to partition to ≠ part[v]: it writes
// part[v], patches every neighbour over v's row (Moved) and shifts v's
// own entries, which must be filled. It returns the arcs read.
func (c *Conn) Move(g *graph.Graph, part []int32, v graph.Vertex, to int32) int {
	from, adj, ws := part[v], g.Neighbors(v), g.EdgeWeights(v)
	part[v] = to
	for i, u := range adj {
		c.Moved(u, part[u], from, to, int32(ws[i]))
	}
	c.Shift(v, from, to, int32(len(adj)))
	return len(adj)
}

// Fill rebuilds v's entries and in from its row in the snapshot csr under
// the view part. When patch is set, v has just moved from partition from
// to part[v], and the same read patches every neighbour for that move. It
// returns the row's length: the arcs read.
func (c *Conn) Fill(csr *graph.CSR, part []int32, v graph.Vertex, patch bool, from int32) int {
	return fill(c, part, v, csr.Row(v), csr.RowWeights(v), patch, from)
}

// FillGraph is Fill, with no patch, from v's row in g: the level graphs
// of the V-cycle carry their integer weights as float64, converted per
// arc.
func (c *Conn) FillGraph(g *graph.Graph, part []int32, v graph.Vertex) int {
	return fill(c, part, v, g.Neighbors(v), g.EdgeWeights(v), false, 0)
}

// fill is Fill over one row source: adj and its weights ws.
func fill[W int32 | float64](c *Conn, part []int32, v graph.Vertex, adj []graph.Vertex, ws []W, patch bool, from int32) int {
	pv, in, row := part[v], int32(0), c.row[:0]
	for i, u := range adj {
		pu, w := part[u], int32(ws[i])
		if patch {
			c.Moved(u, pu, from, pv, w)
		}
		if pu == pv {
			in += w
			continue
		}
		j := 0
		if k := uint32(pu + 2); k < uint32(len(c.at)) {
			if j = int(c.at[k]) - 1; j < 0 {
				j = len(row)
				row = append(row, ConnEntry{Part: pu})
				c.at[k] = int32(j + 1)
			}
		} else {
			for j < len(row) && row[j].Part != pu {
				j++
			}
			if j == len(row) {
				row = append(row, ConnEntry{Part: pu})
			}
		}
		row[j].Wt += w
		row[j].Arcs++
	}
	for _, e := range row {
		if k := uint32(e.Part + 2); k < uint32(len(c.at)) {
			c.at[k] = 0
		}
	}
	c.row = row
	x := &c.vtx[v]
	if x.off < 0 { // stale: it holds no block
		*x = connVertex{}
	}
	c.resize(v, int32(len(row)))
	x.in = in
	copy(c.ent[x.off:x.off+x.size], row)
	return len(adj)
}

// Refill rebuilds every vertex's entries from its row in csr under the
// view part, re-packing the arena in vertex order, and returns the arcs
// read. The arena keeps its capacity, so a warm engine's refills allocate
// nothing.
func (c *Conn) Refill(csr *graph.CSR, part []int32) int {
	n := csr.Order()
	c.Reset(n)
	read := 0
	for v := graph.Vertex(0); int(v) < n; v++ {
		read += c.Fill(csr, part, v, false, 0)
	}
	return read
}
