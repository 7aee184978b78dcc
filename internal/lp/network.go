package lp

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/cancel"
)

// ErrNotFlow is matched (errors.Is) by the error [Network] returns for a
// Problem that is not a min-cost flow it can pivot on a tree; the error
// names the first offending row or column. There is no second solver
// behind Network: every LP the pipeline formulates is a flow
// ([QuotientFlow]), and anything else fails loud.
var ErrNotFlow = errors.New("lp: network: not a min-cost flow")

// Network is a bounded-variable network simplex: the production solver
// for the pipeline's LPs, which are min-cost flows on the partition
// quotient graph — every column of the balance and refine constraint
// matrices is one +1 and one −1, or a single +1 for a tolerance's slack
// arc to the root. Solve first checks that shape on the Problem itself,
// in O(nnz): all rows EQ, every column ±1 in one or two distinct rows
// (at most one of each sign), and no column that could run off to
// infinity (negative cost without a finite upper bound); a Problem that
// fails the check is refused with [ErrNotFlow]. A flow is pivoted on a
// spanning tree over the rows plus a root node instead of on a tableau,
// so a pivot costs the tree work of its cycle and the subtree it re-hangs
// (at most O(rows)) plus one pricing block, rather than an
// O(rows·columns) row-eta update.
//
// The method is the textbook one. The basis is a rooted spanning tree
// (parent, predecessor arc and its direction, depth, node potential, and
// child lists so a pivot can walk just the subtree it re-hangs);
// nonbasic arcs rest at a bound. The start basis is one artificial root
// arc per row carrying that row's RHS at cost big-M = 1 + Σ|c|, which is
// large enough that any flow left on an artificial arc at optimality
// proves the problem infeasible. The leaving arc is the last blocking arc
// of the pivot cycle, walked from its apex along the push direction
// (Cunningham's rule): the basis stays strongly feasible, so degenerate
// pivots cannot cycle. Pricing scans blocks of ~√columns round-robin and
// takes the block's most violated arc.
//
// A solve is a pure function of its Problem: the pricing cursor restarts
// every solve and nothing but arenas survives one. On integer data every
// flow and potential stays an integer, so the returned vertex is exactly
// integral.
//
// Network is a stateless configuration value whose Solve runs through a
// throwaway session, so concurrent Solve calls are safe and the returned
// Solution is freshly allocated; NewSession returns the arena-reusing form
// the engine holds (warm solves allocate nothing).
type Network struct {
	MaxIter int // pivot cap (0 = default 200000)
}

// Name implements Solver.
func (Network) Name() string { return "network" }

// NewSession implements [SessionSolver].
func (s Network) NewSession() Solver {
	ses := &networkSession{maxIter: s.MaxIter}
	if ses.maxIter == 0 {
		ses.maxIter = 200000
	}
	return ses
}

// Solve implements Solver via a throwaway session, so the result does
// not alias any reused state.
func (s Network) Solve(ctx context.Context, p *Problem) (*Solution, error) {
	return s.NewSession().Solve(ctx, p)
}

// Arc rest states, chosen so state·(reduced cost) < 0 is the entering
// test for both bounds; tree arcs and zero-capacity arcs are never priced.
const (
	arcAtUpper int8 = -1
	arcSkip    int8 = 0
	arcAtLower int8 = 1
)

// networkSession is the stateful form of [Network]: one solve stream's
// graph, tree and Solution arenas. Not safe for concurrent use.
type networkSession struct {
	maxIter int

	// Arcs: structural columns 0..n-1, then one artificial root arc per
	// row. Nodes: rows 0..m-1, then the root m.
	n, m       int
	tail, head []int32
	cost       []float64 // minimization sense
	capa       []float64
	flow       []float64
	state      []int8

	// Spanning tree. predUp[u] reports that pred[u] points from u to
	// parent[u]; child/next/prev are the doubly linked child lists.
	parent []int32
	pred   []int32
	predUp []bool
	depth  []int32
	pi     []float64
	child  []int32
	next   []int32
	prev   []int32
	stack  []int32

	sol   Solution
	solX  []float64
	solRC []float64
}

// Name implements Solver.
func (s *networkSession) Name() string { return "network" }

// Solve implements Solver. The returned *Solution (including X and
// ReducedCost) is an arena overwritten by this session's next Solve.
func (s *networkSession) Solve(ctx context.Context, p *Problem) (*Solution, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := s.build(p); err != nil {
		return nil, err
	}
	status, iters, err := s.pivot(ctx)
	if err != nil {
		return nil, err
	}
	s.sol = Solution{Status: status, Iterations: iters}
	if status != Optimal {
		return &s.sol, nil
	}
	for _, f := range s.flow[s.n:] {
		if f > feasTol {
			s.sol.Status = Infeasible
			return &s.sol, nil
		}
	}
	s.solX = grow(s.solX, s.n)
	copy(s.solX, s.flow)
	s.sol.X = s.solX
	// The optimal tree's potentials are the duals: a column's reduced
	// cost is its arc's, 0 on every tree arc.
	s.solRC = grow(s.solRC, s.n)
	for v := range s.solRC {
		s.solRC[v] = s.cost[v] - s.pi[s.tail[v]] + s.pi[s.head[v]]
	}
	s.sol.ReducedCost = s.solRC
	s.sol.Objective = Objective(p, s.solX)
	return &s.sol, nil
}

// build checks that p is a node-arc incidence problem and lays it out as a
// flow network with the artificial start basis, or returns an error
// matching ErrNotFlow (with the arenas in an unspecified state) when p is
// anything else.
func (s *networkSession) build(p *Problem) error {
	n, m := p.NumVars(), len(p.Cons)
	arcs, nodes := n+m, m+1
	root := int32(m)
	s.n, s.m = n, m
	s.tail = grow(s.tail, arcs)
	s.head = grow(s.head, arcs)
	s.cost = grow(s.cost, arcs)
	s.capa = grow(s.capa, arcs)
	s.flow = grow(s.flow, arcs)
	s.state = grow(s.state, arcs)

	const unset = -1
	for v := 0; v < n; v++ {
		s.tail[v], s.head[v] = unset, unset
	}
	for i := range p.Cons {
		c := &p.Cons[i]
		if c.Rel != EQ {
			return fmt.Errorf("%w: row %d is a %s row, not an equality", ErrNotFlow, i, c.Rel)
		}
		for _, t := range c.Terms {
			end := s.tail
			switch t.Coef {
			case 1:
			case -1:
				end = s.head
			default:
				return fmt.Errorf("%w: row %d has coefficient %g on column %d, not ±1", ErrNotFlow, i, t.Coef, t.Var)
			}
			if end[t.Var] != unset {
				return fmt.Errorf("%w: column %d has a second %+g coefficient in row %d", ErrNotFlow, t.Var, t.Coef, i)
			}
			end[t.Var] = int32(i)
		}
	}
	bigM := 1.0
	for v := 0; v < n; v++ {
		switch {
		case s.tail[v] == unset && s.head[v] == unset:
			return fmt.Errorf("%w: column %d is in no row", ErrNotFlow, v)
		case s.tail[v] == s.head[v]:
			return fmt.Errorf("%w: column %d has both signs in row %d", ErrNotFlow, v, s.tail[v])
		case s.tail[v] == unset:
			s.tail[v] = root
		case s.head[v] == unset:
			s.head[v] = root
		}
		c := p.Obj[v]
		if p.Sense == Maximize {
			c = -c
		}
		u := p.Upper[v]
		if c < 0 && math.IsInf(u, 1) {
			return fmt.Errorf("%w: column %d improves the objective without an upper bound", ErrNotFlow, v)
		}
		s.cost[v], s.capa[v], s.flow[v] = c, u, 0
		s.state[v] = arcAtLower
		if u == 0 {
			s.state[v] = arcSkip
		}
		bigM += math.Abs(c)
	}

	s.parent = grow(s.parent, nodes)
	s.pred = grow(s.pred, nodes)
	s.depth = grow(s.depth, nodes)
	s.child = grow(s.child, nodes)
	s.next = grow(s.next, nodes)
	s.prev = grow(s.prev, nodes)
	s.stack = grow(s.stack, nodes)
	s.predUp = grow(s.predUp, nodes)
	s.pi = grow(s.pi, nodes)
	s.parent[root], s.pred[root], s.child[root] = unset, unset, unset
	s.depth[root], s.pi[root] = 0, 0
	for i := m - 1; i >= 0; i-- {
		a := n + i
		b := p.Cons[i].RHS
		up := b >= 0 // supply drains to the root, demand is fed from it
		if up {
			s.tail[a], s.head[a] = int32(i), root
		} else {
			s.tail[a], s.head[a] = root, int32(i)
		}
		s.cost[a], s.capa[a], s.flow[a] = bigM, Inf, math.Abs(b)
		s.state[a] = arcSkip
		s.child[i] = unset
		s.hang(int32(i), root, int32(a), up)
	}
	return nil
}

// hang makes u a child of q through arc a (pointing up: from u to q) and
// settles the depth and potential of u's whole subtree, parents before
// children. Potentials satisfy cost − π[tail] + π[head] = 0 on every tree
// arc and are rebuilt from the parent's rather than shifted, so no drift
// accumulates across pivots.
func (s *networkSession) hang(u, q, a int32, up bool) {
	s.parent[u], s.pred[u], s.predUp[u] = q, a, up
	s.next[u], s.prev[u] = s.child[q], -1
	if s.child[q] >= 0 {
		s.prev[s.child[q]] = u
	}
	s.child[q] = u
	s.stack[0] = u
	for sp := 1; sp > 0; {
		sp--
		u := s.stack[sp]
		q := s.parent[u]
		s.depth[u] = s.depth[q] + 1
		if s.predUp[u] {
			s.pi[u] = s.pi[q] + s.cost[s.pred[u]]
		} else {
			s.pi[u] = s.pi[q] - s.cost[s.pred[u]]
		}
		for c := s.child[u]; c >= 0; c = s.next[c] {
			s.stack[sp] = c
			sp++
		}
	}
}

// unhang removes u from its parent's child list.
func (s *networkSession) unhang(u int32) {
	if s.prev[u] >= 0 {
		s.next[s.prev[u]] = s.next[u]
	} else {
		s.child[s.parent[u]] = s.next[u]
	}
	if s.next[u] >= 0 {
		s.prev[s.next[u]] = s.prev[u]
	}
}

// pivot runs the simplex loop from the artificial basis to optimality.
func (s *networkSession) pivot(ctx context.Context) (Status, int, error) {
	n := s.n
	block := int(math.Sqrt(float64(n)))
	if block < 8 {
		block = 8
	}
	next := 0 // pricing cursor: restarts every solve
	for iters := 0; ; iters++ {
		if iters >= s.maxIter {
			return IterLimit, iters, nil
		}
		if iters&ctxCheckMask == 0 {
			if err := cancel.Check(ctx, "network simplex"); err != nil {
				return IterLimit, iters, err
			}
		}

		// Block pricing over the structural arcs (an artificial arc that
		// left the tree rests at zero and is never needed again).
		enter, best, left := -1, -feasTol, block
		for scanned, e := 0, next; scanned < n; scanned++ {
			if st := s.state[e]; st != arcSkip {
				rc := s.cost[e] - s.pi[s.tail[e]] + s.pi[s.head[e]]
				if v := float64(st) * rc; v < best {
					best, enter = v, e
				}
			}
			if e++; e == n {
				e = 0
			}
			if left--; left == 0 {
				if enter >= 0 {
					next = e
					break
				}
				left = block
			}
		}
		if enter < 0 {
			return Optimal, iters, nil
		}

		// The cycle pushes flow first → second through the entering arc and
		// back second ↗ apex ↘ first through the tree.
		first, second := s.tail[enter], s.head[enter]
		if s.state[enter] == arcAtUpper {
			first, second = second, first
		}
		// Leaving arc: the last blocking arc in cycle order from the apex
		// (first side top-down, the entering arc, second side bottom-up);
		// hence ties go to the second side's topmost arc, then the entering
		// arc, then the first side's bottommost.
		delta := s.capa[enter]
		leave, onFirst := int32(-1), false // leave = child node of the leaving arc
		u, v := first, second
		for u != v {
			if s.depth[u] >= s.depth[v] {
				a := s.pred[u]
				d := s.flow[a] // walked against: an up arc drains
				if !s.predUp[u] {
					d = s.capa[a] - d
				}
				if d < delta {
					delta, leave, onFirst = d, u, true
				}
				u = s.parent[u]
			} else {
				a := s.pred[v]
				d := s.flow[a] // walked along: a down arc drains
				if s.predUp[v] {
					d = s.capa[a] - d
				}
				if d <= delta {
					delta, leave, onFirst = d, v, false
				}
				v = s.parent[v]
			}
		}
		apex := u
		if math.IsInf(delta, 1) {
			return Unbounded, iters, nil // excluded by build; kept as a guard
		}

		if delta != 0 {
			if s.state[enter] == arcAtLower {
				s.flow[enter] += delta
			} else {
				s.flow[enter] -= delta
			}
			for u := first; u != apex; u = s.parent[u] {
				if s.predUp[u] {
					s.flow[s.pred[u]] -= delta
				} else {
					s.flow[s.pred[u]] += delta
				}
			}
			for v := second; v != apex; v = s.parent[v] {
				if s.predUp[v] {
					s.flow[s.pred[v]] += delta
				} else {
					s.flow[s.pred[v]] -= delta
				}
			}
		}
		if leave < 0 { // the entering arc reached its other bound first
			s.state[enter] = -s.state[enter]
			continue
		}

		// The leaving arc drained exactly when it was walked against its
		// direction; snap it onto the bound it blocked at.
		out := s.pred[leave]
		if s.predUp[leave] == onFirst {
			s.flow[out], s.state[out] = 0, arcAtLower
		} else {
			s.flow[out], s.state[out] = s.capa[out], arcAtUpper
		}
		// Re-hang the subtree the leaving arc cut off from its end of the
		// entering arc: parent pointers reverse along in ↗ leave, new top
		// first, so each hang settles a subtree whose new ancestors are
		// already settled.
		in, onto := second, first
		if onFirst {
			in, onto = first, second
		}
		arc, up := int32(enter), s.tail[enter] == in
		for u := in; ; {
			q, a, qUp := s.parent[u], s.pred[u], !s.predUp[u]
			s.unhang(u)
			s.hang(u, onto, arc, up)
			if u == leave {
				break
			}
			onto, arc, up, u = u, a, qUp, q
		}
		s.state[enter] = arcSkip
	}
}
