package comm

import "fmt"

// Collective tags live in a reserved negative space so user tags ≥ 0 never
// collide with them.
const (
	tagBcast = -1 - iota
	tagAllreduceF
	tagAllgather
)

// Bcast distributes root's data to every rank via a binomial tree and
// returns it. nbytes is the payload size for the cost model; non-root
// callers may pass nil data.
func (c *Comm) Bcast(root int, data any, nbytes int) (any, error) {
	p := c.w.p
	if p == 1 {
		return data, nil
	}
	// Rotate so the root is virtual rank 0.
	vr := (c.rank - root + p) % p
	// Receive from parent (highest set bit), then forward to children.
	if vr != 0 {
		mask := 1
		for mask <= vr {
			mask <<= 1
		}
		mask >>= 1
		parent := ((vr - mask) + root) % p
		got, err := c.Recv(parent, tagBcast)
		if err != nil {
			return nil, err
		}
		data = got
	}
	for mask := nextPow2(vr); mask < p; mask <<= 1 {
		child := vr + mask
		if child < p {
			if err := c.Send((child+root)%p, tagBcast, data, nbytes); err != nil {
				return nil, err
			}
		}
	}
	return data, nil
}

// nextPow2 returns the smallest power of two strictly greater than vr,
// starting at 1 for vr==0.
func nextPow2(vr int) int {
	m := 1
	for m <= vr {
		m <<= 1
	}
	if vr == 0 {
		return 1
	}
	return m
}

// ReduceOp combines two float64 values.
type ReduceOp int

// Supported reductions.
const (
	OpSum ReduceOp = iota
	OpMax
	OpMin
)

func applyOp(op ReduceOp, a, b float64) float64 {
	switch op {
	case OpSum:
		return a + b
	case OpMax:
		if a > b {
			return a
		}
		return b
	case OpMin:
		if a < b {
			return a
		}
		return b
	}
	return a + b
}

// reduceTree runs a binomial-tree reduction to rank 0: combine is called
// with the local accumulator and each received partial result. It returns
// the full reduction on rank 0 and partials elsewhere; callers broadcast.
func reduceTree[T any](c *Comm, acc T, nbytes int, combine func(T, T) T) (T, error) {
	p := c.w.p
	for mask := 1; mask < p; mask <<= 1 {
		if c.rank&mask != 0 {
			if err := c.Send(c.rank-mask, tagAllreduceF, acc, nbytes); err != nil {
				return acc, err
			}
			break
		}
		if c.rank+mask < p {
			got, err := c.Recv(c.rank+mask, tagAllreduceF)
			if err != nil {
				return acc, err
			}
			g, ok := got.(T)
			if !ok {
				return acc, fmt.Errorf("comm: reduce payload type mismatch")
			}
			acc = combine(acc, g)
		}
	}
	return acc, nil
}

// AllreduceFloat combines x element-wise across ranks with op via a
// binomial-tree reduction followed by a broadcast (correct for any P);
// all ranks return the same result. x is not modified.
func (c *Comm) AllreduceFloat(x []float64, op ReduceOp) ([]float64, error) {
	acc, err := reduceTree(c, append([]float64(nil), x...), 8*len(x), func(a, g []float64) []float64 {
		for i := range a {
			a[i] = applyOp(op, a[i], g[i])
		}
		c.Advance(float64(len(a)))
		return a
	})
	if err != nil {
		return nil, err
	}
	got, err := c.Bcast(0, acc, 8*len(x))
	if err != nil {
		return nil, err
	}
	return got.([]float64), nil
}

// ArgminIndexed returns the global minimum of val and the caller-supplied
// index associated with it; ties prefer the smaller index. Ranks with no
// candidate pass +Inf. This selects entering columns in the parallel
// simplex deterministically regardless of rank count.
func (c *Comm) ArgminIndexed(val float64, idx int) (minVal float64, minIdx int, err error) {
	acc, err := reduceTree(c, [2]float64{val, float64(idx)}, 16, func(a, g [2]float64) [2]float64 {
		if g[0] < a[0] || (g[0] == a[0] && g[1] < a[1]) {
			return g
		}
		return a
	})
	if err != nil {
		return 0, 0, err
	}
	got, err := c.Bcast(0, acc, 16)
	if err != nil {
		return 0, 0, err
	}
	pair := got.([2]float64)
	return pair[0], int(pair[1]), nil
}

// gatherPiece carries a set of per-rank contributions up the gather tree.
type gatherPiece struct {
	entries map[int]any
	nbytes  int
}

// Allgather collects every rank's data everywhere, returning a slice
// indexed by rank. Implemented as a binomial-tree gather to rank 0
// followed by a broadcast (2·⌈log₂P⌉ latency hops), matching the
// log-depth scaling of CMMD's concatenation primitive.
func (c *Comm) Allgather(data any, nbytes int) ([]any, error) {
	p := c.w.p
	acc := gatherPiece{entries: map[int]any{c.rank: data}, nbytes: nbytes}
	for mask := 1; mask < p; mask <<= 1 {
		if c.rank&mask != 0 {
			if err := c.Send(c.rank-mask, tagAllgather, acc, acc.nbytes); err != nil {
				return nil, err
			}
			break
		}
		if c.rank+mask < p {
			got, err := c.Recv(c.rank+mask, tagAllgather)
			if err != nil {
				return nil, err
			}
			g, ok := got.(gatherPiece)
			if !ok {
				return nil, fmt.Errorf("comm: allgather payload mismatch")
			}
			for r, d := range g.entries {
				acc.entries[r] = d
			}
			acc.nbytes += g.nbytes
		}
	}
	got, err := c.Bcast(0, acc, acc.nbytes)
	if err != nil {
		return nil, err
	}
	full := got.(gatherPiece)
	out := make([]any, p)
	for r := 0; r < p; r++ {
		d, ok := full.entries[r]
		if !ok {
			return nil, fmt.Errorf("comm: allgather missing contribution from rank %d", r)
		}
		out[r] = d
	}
	return out, nil
}
