package lp

import (
	"context"
	"errors"
	"math"
	"testing"
)

// FuzzSolverAgreement feeds randomized small LPs (decoded from raw bytes)
// to both solvers and checks they agree with the "dense" oracle on
// status and optimum, and that reported optima are feasible. Inputs whose first byte has the high bit set decode to
// flow-shaped LPs (decodeFlowLP), ranged supplies included — there the
// "network" solver must pivot on its tree, never refuse, and every
// optimum must also be exactly integral. The other inputs are generic
// LPs, the oracle's alone: "network" has no path for them, so it either
// agrees (the bytes happened to spell a flow) or refuses with ErrNotFlow
// — never a wrong answer. One session of each [SessionSolver] then
// solves the problem and two same-structure perturbations of it back to
// back, each held to the oracle's answer for that problem: nothing but
// arenas may cross a session's solves. On every flow, each solver's
// ReducedCost must certify its own optimum (requireCertified).
func FuzzSolverAgreement(f *testing.F) {
	f.Add([]byte{2, 1, 3, 200, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{3, 2, 0, 0, 9, 9, 9, 1, 1, 1, 0, 0, 0, 5})
	f.Add([]byte{1, 1, 255, 0, 0})
	// Flow-shaped: flag, shape, rows, arcs, then (tail, head[, cost], cap)
	// per arc and an RHS byte per row.
	f.Add([]byte{0x80, 0, 2, 3, 0, 1, 4, 1, 2, 3, 2, 0, 5, 0, 2, 0, 5, 1, 3})          // balance-shaped
	f.Add([]byte{0x80, 1, 3, 5, 0, 1, 3, 1, 2, 2, 2, 3, 4, 3, 0, 1, 0, 2, 0, 2, 1, 5}) // refine-shaped
	f.Add([]byte{0x80, 2, 1, 3, 1, 0, 2, 6, 3, 2, 1, 1, 5, 0, 0, 6, 2, 1, 0, 2, 4, 6}) // root arcs, free costs
	f.Add([]byte{0x80, 0, 4, 0, 0, 1, 2, 5, 3, 3, 0, 1})                               // rows no arc touches
	f.Add([]byte{0x80, 3, 2, 3, 1, 0, 1, 4, 1, 2, 3, 2, 0, 5, 6, 1, 2})                // ranged supplies: a slack arc per row
	f.Fuzz(func(t *testing.T, data []byte) {
		p := decodeLP(data)
		if p == nil {
			return
		}
		flow := data[0]&0x80 != 0
		// solve returns nil for the one refusal allowed: network's, of a
		// generic LP.
		solve := func(label string, s Solver, q *Problem) *Solution {
			sol, err := s.Solve(context.Background(), q)
			if !flow && s.Name() == "network" && errors.Is(err, ErrNotFlow) {
				return nil
			}
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if sol.Status == Optimal {
				if err := CheckFeasible(q, sol.X, 1e-5); err != nil {
					t.Fatalf("%s: optimal but infeasible: %v", label, err)
				}
				for v, x := range sol.X {
					// Integer flow data: pivots on a totally unimodular
					// matrix never leave the integers, roundoff included.
					if flow && x != math.Trunc(x) {
						t.Fatalf("%s: x[%d] = %v is not integral", label, v, x)
					}
				}
				if flow {
					requireCertified(t, label, q, sol)
				}
			}
			return sol
		}
		agree := func(label string, sol, ref *Solution) {
			if sol.Status != ref.Status {
				t.Fatalf("%s: status %v, want %v", label, sol.Status, ref.Status)
			}
			if ref.Status == Optimal &&
				math.Abs(sol.Objective-ref.Objective) > 1e-5*(1+math.Abs(ref.Objective)) {
				t.Fatalf("%s: objective %g, want %g", label, sol.Objective, ref.Objective)
			}
		}
		// dense — the paper's tableau simplex, sharing no pivoting code
		// with the network simplex — is the oracle both solvers are
		// held to.
		ref := solve("dense/oracle", Dense{}, p)
		if ref.Status == IterLimit {
			return // bounded work budget exceeded; skip comparisons
		}
		// Two same-structure perturbations of p — the shape of the
		// pipeline's successive balance stages and refinement rounds —
		// for the session pass below.
		p2 := perturbLP(p, data, false) // new RHS and bounds, same costs
		p3 := perturbLP(p, data, true)  // new costs too
		cases := []struct {
			label string
			q     *Problem
			ref   *Solution
		}{
			{"first", p, ref},
			{"perturbed", p2, solve("dense/perturbed", Dense{}, p2)},
			{"cost-perturbed", p3, solve("dense/cost-perturbed", Dense{}, p3)},
		}
		for _, name := range []string{"dense", "network"} {
			s, err := Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			sol := solve(name, s, p)
			if sol == nil {
				continue
			}
			if sol.Status == IterLimit {
				return // bounded work budget exceeded; skip comparisons
			}
			agree(name, sol, ref)

			// One session over all three problems: nothing but arenas may
			// cross a session's solves.
			if _, ok := s.(SessionSolver); !ok {
				continue
			}
			ses := Session(s)
			for _, c := range cases {
				label := name + "/session-" + c.label
				if sol := solve(label, ses, c.q); sol != nil && sol.Status != IterLimit && c.ref.Status != IterLimit {
					agree(label, sol, c.ref)
				}
			}
		}
	})
}

// requireCertified holds sol.ReducedCost to complementary slackness with
// sol.X on q's bounds — rc ≥ −tol where x sits at 0, rc ≤ tol where it
// sits at its upper bound, |rc| ≤ tol strictly between (a zero-capacity
// column is at both bounds and free) — which, with X feasible, certifies
// X optimal: the reduced costs are the duals' proof, in minimization
// sense whatever q's sense.
func requireCertified(t *testing.T, label string, q *Problem, sol *Solution) {
	t.Helper()
	const tol = 1e-6
	if len(sol.ReducedCost) != len(sol.X) {
		t.Fatalf("%s: %d reduced costs for %d variables", label, len(sol.ReducedCost), len(sol.X))
	}
	for v, x := range sol.X {
		rc := sol.ReducedCost[v]
		atLower, atUpper := x < tol, x > q.Upper[v]-tol
		if (atLower && !atUpper && rc < -tol) || (atUpper && !atLower && rc > tol) ||
			(!atLower && !atUpper && math.Abs(rc) > tol) {
			t.Fatalf("%s: x[%d] = %g in [0, %g] with reduced cost %g", label, v, x, q.Upper[v], rc)
		}
	}
}

// perturbLP derives a same-structure problem — identical constraint
// matrix, different RHS and bound values (plus, when costs is set,
// different objective coefficients) — deterministically from the fuzz
// input. With costs false it reproduces the exact shape of the
// pipeline's successive balance stages.
func perturbLP(p *Problem, data []byte, costs bool) *Problem {
	seed := uint64(len(data)) + 0x9e3779b9
	for _, b := range data {
		seed = seed*131 + uint64(b)
	}
	next := func() uint64 {
		seed ^= seed << 13
		seed ^= seed >> 7
		seed ^= seed << 17
		return seed
	}
	q := &Problem{
		Sense: p.Sense,
		Obj:   append([]float64(nil), p.Obj...),
		Upper: append([]float64(nil), p.Upper...),
		Cons:  append([]Constraint(nil), p.Cons...),
	}
	if costs {
		for v := range q.Obj {
			q.Obj[v] = float64(int(next()%11) - 5)
		}
	}
	for v := range q.Upper {
		q.Upper[v] = float64(next() % 9) // finite, like decodeLP's bounds
	}
	for i := range q.Cons {
		q.Cons[i].RHS = float64(int(next()%13) - 4)
	}
	return q
}

// decodeLP deterministically builds a small LP from fuzz bytes, or nil if
// there is not enough entropy. A set high bit in the first byte selects
// the flow-shaped decoding.
func decodeLP(data []byte) *Problem {
	if len(data) < 5 {
		return nil
	}
	next := func() int {
		if len(data) == 0 {
			return 3
		}
		v := int(data[0])
		data = data[1:]
		return v
	}
	if data[0]&0x80 != 0 {
		next() // the flag byte
		return decodeFlowLP(next)
	}
	n := 1 + next()%4
	m := next() % 4
	sense := Minimize
	if next()%2 == 1 {
		sense = Maximize
	}
	p := NewProblem(sense, n)
	for v := 0; v < n; v++ {
		p.SetObjective(v, float64(next()%11-5))
		p.SetUpper(v, float64(next()%9)) // always finite: keeps brute cases bounded
	}
	for i := 0; i < m; i++ {
		var terms []Term
		for v := 0; v < n; v++ {
			c := next()%7 - 3
			if c != 0 {
				terms = append(terms, Term{Var: v, Coef: float64(c)})
			}
		}
		if len(terms) == 0 {
			terms = []Term{{Var: 0, Coef: 1}}
		}
		rel := []Rel{LE, GE, EQ}[next()%3]
		p.AddConstraint(terms, rel, float64(next()%13-4))
	}
	return p
}

// decodeFlowLP builds a node-arc incidence LP — EQ rows, one +1 and/or
// one −1 per column, integer capacities, costs and RHS — in the four
// shapes the pipeline and the recognizer care about: balance (minimize Σx),
// refine (maximize Σx over a circulation), free integer costs, and
// balance under a tolerance k — ranged supplies, i.e. on every row one
// more zero-cost root arc of capacity 2k and k added to the RHS. Arcs
// whose other end is index m touch a single row (a root arc); capacities
// include 0; rows no arc touches keep their RHS, and supplies need not
// sum to zero, so infeasible instances are common.
func decodeFlowLP(next func() int) *Problem {
	shape := next() % 4
	m := 1 + next()%5
	n := 1 + next()%8
	sense := Minimize
	if shape == 1 || (shape == 2 && next()%2 == 1) {
		sense = Maximize
	}
	band := 0
	if shape == 3 {
		band = 1 + next()%3
	}
	p := NewProblem(sense, n)
	rows := make([][]Term, m)
	for v := 0; v < n; v++ {
		tail, head := next()%(m+1), next()%(m+1)
		if tail == head {
			head = (tail + 1) % (m + 1)
		}
		if tail < m {
			rows[tail] = append(rows[tail], Term{Var: v, Coef: 1})
		}
		if head < m {
			rows[head] = append(rows[head], Term{Var: v, Coef: -1})
		}
		p.SetObjective(v, 1)
		if shape == 2 {
			p.SetObjective(v, float64(next()%7-3))
		}
		p.SetUpper(v, float64(next()%6))
	}
	for i := 0; i < m; i++ {
		rhs := 0
		if shape != 1 {
			rhs = next()%7 - 3
		}
		if band > 0 {
			p.Obj, p.Upper = append(p.Obj, 0), append(p.Upper, float64(2*band))
			rows[i] = append(rows[i], Term{Var: n + i, Coef: 1})
		}
		p.AddConstraint(rows[i], EQ, float64(rhs+band))
	}
	return p
}
