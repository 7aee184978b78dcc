package lp

import (
	"context"
	"math/rand"
	"testing"
)

func TestDenseSizeMatchesTableau(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 300; trial++ {
		p := randomGenericLP(rng)
		if rng.Intn(3) == 0 {
			p.Upper[rng.Intn(p.NumVars())] = Inf
		}
		tab := newTableau(p)
		vars, cons := DenseSize(p)
		if vars != tab.nCols || cons != len(tab.rows) {
			t.Fatalf("trial %d: DenseSize = (%d,%d), tableau = (%d,%d)", trial, vars, cons, tab.nCols, len(tab.rows))
		}
	}
}

// TestTableauStandardForm: the dense tableau's standard form starts from a
// unit basis (one slack or artificial per row) and a non-negative RHS.
func TestTableauStandardForm(t *testing.T) {
	tab := newTableau(paperFig5Problem())
	for i, bcol := range tab.basis {
		for r, row := range tab.rows {
			want := 0.0
			if r == i {
				want = 1
			}
			if row[bcol] != want {
				t.Fatalf("basis column %d not unit at row %d", bcol, r)
			}
		}
	}
	for i, b := range tab.rhs {
		if b < 0 {
			t.Fatalf("rhs[%d] = %g < 0", i, b)
		}
	}
}

// TestTableauObjectiveSense: a maximization is solved as a flipped
// minimization and reported in its own sense.
func TestTableauObjectiveSense(t *testing.T) {
	p := NewProblem(Maximize, 1)
	p.SetObjective(0, 3)
	p.SetUpper(0, 2)
	if !newTableau(p).flip {
		t.Fatal("maximization must set flip")
	}
	sol, err := Dense{}.Solve(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || sol.Objective != 6 {
		t.Fatalf("%v objective %g, want optimal 6", sol.Status, sol.Objective)
	}
}

func TestDenseRejectsInvalid(t *testing.T) {
	p := NewProblem(Minimize, 1)
	p.AddConstraint([]Term{{Var: 7, Coef: 1}}, LE, 1)
	if _, err := (Dense{}).Solve(context.Background(), p); err == nil {
		t.Fatal("invalid problem must be rejected")
	}
	if vars, cons := DenseSize(p); vars != 0 || cons != 0 {
		t.Fatalf("DenseSize of an invalid problem = (%d,%d), want (0,0)", vars, cons)
	}
}
