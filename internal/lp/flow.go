package lp

// QuotientFlow is the pipeline's one formulation routine. Both of the
// paper's LPs — the balance LP (§2.3, constraint 12) and the refinement
// LP (§2.4) — are min-cost flows on the P-node partition quotient graph:
// one unit-cost arc per ordered partition pair with a positive capacity,
// one flow-conservation row per partition. The balance and refine arenas
// each own one QuotientFlow and differ only in what they pass Formulate.
//
// It owns the reusable buffers of the formulation — the Problem's
// objective/bound/constraint storage and the pair mapping. Buffers grow
// to the largest formulation seen and are then reused, so steady-state
// formulation through a warm engine allocates nothing. The Problem and
// pair slice Formulate returns are owned by the QuotientFlow and
// invalidated by its next call. The zero value is ready to use.
type QuotientFlow struct {
	prob  Problem
	pairs [][2]int32
	terms []Term
	off   []int // partition j's row is terms[off[j]:off[j+1]]
	cons  []Constraint
}

// Formulate builds the flow LP over the ordered pairs (i,j), i ≠ j, with
// capa[i][j] > 0: variable v = l(i,j) for pairs[v] = (i,j), unit
// objective, 0 ≤ l(i,j) ≤ capa[i][j], and per partition j the row
//
//	outflow(j) − inflow(j) = supply[j]
//
// (a nil supply is zero everywhere: a circulation). A partition no pair
// touches gets a row only when its supply is non-zero — the empty row
// with a non-zero RHS encodes the contradiction, so the solver reports
// infeasibility.
//
// band > 0 lets every partition's net outflow miss its supply by up to
// band. Such a ranged supply is itself a flow: one zero-cost slack
// column s_j per partition, after the pair columns, with
//
//	outflow(j) − inflow(j) + s_j = supply[j] + band,   0 ≤ s_j ≤ 2·band
//
// i.e. one capacitated arc from partition j to the root node. Every
// partition gets a row then; an untouched one is infeasible exactly
// when |supply[j]| > band. The rows are EQ at every band, so [Network]
// pivots every formulation on its tree.
func (q *QuotientFlow) Formulate(sense Sense, capa [][]int, supply []int, band int) (*Problem, [][2]int32) {
	p := len(capa)
	q.pairs = q.pairs[:0]
	for i := 0; i < p; i++ {
		for j := 0; j < p; j++ {
			if i != j && capa[i][j] > 0 {
				q.pairs = append(q.pairs, [2]int32{int32(i), int32(j)})
			}
		}
	}
	pairs := q.pairs
	n, extra := len(pairs), 0 // extra: slack columns per partition
	if band > 0 {
		extra = 1
	}
	slacks := extra * p
	prob := &q.prob
	prob.Sense = sense
	prob.Names = nil
	prob.Obj = grow(prob.Obj, n+slacks)
	prob.Upper = grow(prob.Upper, n+slacks)
	for v, pr := range pairs {
		prob.Obj[v] = 1
		prob.Upper[v] = float64(capa[pr[0]][pr[1]])
	}
	for v := n; v < n+slacks; v++ {
		prob.Obj[v] = 0
		prob.Upper[v] = float64(2 * band)
	}

	q.fillRows(p, extra)
	q.cons = q.cons[:0]
	for j := 0; j < p; j++ {
		rhs := band
		if supply != nil {
			rhs += supply[j]
		}
		if terms := q.terms[q.off[j]:q.off[j+1]]; len(terms) > 0 || rhs != 0 {
			q.cons = append(q.cons, Constraint{Terms: terms, Rel: EQ, RHS: float64(rhs)})
		}
	}
	prob.Cons = q.cons
	return prob, pairs
}

// fillRows writes the flow-conservation rows of the pair variables into
// q.terms — +1 on the row of a pair's source partition, −1 on its
// target's, then (extra = 1) +1 for the partition's slack column — and
// sets the row offsets: partition j's row is terms[off[j]:off[j+1]]. Two
// counting passes over the pairs, O(pairs + p): the first sizes every
// row, the second writes the terms in variable order, so each row lists
// its variables ascending.
func (q *QuotientFlow) fillRows(p, extra int) {
	pairs := q.pairs
	terms, off := grow(q.terms, 2*len(pairs)+extra*p), grow(q.off, p+2)
	// off[j+2] counts row j, the running sum turns off[j+1] into its start,
	// and filling advances off[j+1] to its end — the start of row j+1.
	off[0], off[1] = 0, 0
	for j := 2; j < len(off); j++ {
		off[j] = extra
	}
	for _, pr := range pairs {
		off[pr[0]+2]++
		off[pr[1]+2]++
	}
	for j := 2; j < len(off); j++ {
		off[j] += off[j-1]
	}
	for v, pr := range pairs {
		terms[off[pr[0]+1]] = Term{Var: v, Coef: 1}
		off[pr[0]+1]++
		terms[off[pr[1]+1]] = Term{Var: v, Coef: -1}
		off[pr[1]+1]++
	}
	if extra > 0 {
		for j := 0; j < p; j++ {
			terms[off[j+1]] = Term{Var: len(pairs) + j, Coef: 1}
			off[j+1]++
		}
	}
	q.terms, q.off = terms, off
}

// grow resizes a reusable scratch slice to length n without shrinking
// capacity, allocating only on growth. Values beyond a previous length
// are stale and must be overwritten.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
