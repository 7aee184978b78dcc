package lp

import (
	"context"
	"math"
	"strings"
	"testing"
)

func TestStandardizeShape(t *testing.T) {
	p := paperFig5Problem()
	std, err := Standardize(p)
	if err != nil {
		t.Fatal(err)
	}
	// Must match the dense tableau's accounting exactly.
	vars, cons := DenseSize(p)
	if std.N() != vars || std.M() != cons {
		t.Fatalf("standard form %dx%d, dense size %dx%d", std.N(), std.M(), vars, cons)
	}
	// Initial basis columns must be unit columns.
	for i, bcol := range std.Basis {
		col := std.Cols[bcol]
		for r := range col {
			want := 0.0
			if r == i {
				want = 1
			}
			if col[r] != want {
				t.Fatalf("basis column %d not unit at row %d", bcol, r)
			}
		}
	}
	// RHS non-negative.
	for i, b := range std.RHS {
		if b < 0 {
			t.Fatalf("rhs[%d] = %g < 0", i, b)
		}
	}
}

func TestStandardizeObjectiveSense(t *testing.T) {
	p := NewProblem(Maximize, 1)
	p.SetObjective(0, 3)
	p.SetUpper(0, 2)
	std, err := Standardize(p)
	if err != nil {
		t.Fatal(err)
	}
	if !std.Flip {
		t.Fatal("maximization must set Flip")
	}
	// Objective of x=2 in the original sense is 6.
	if got := std.Objective([]float64{2}); got != 6 {
		t.Fatalf("objective = %g, want 6", got)
	}
}

func TestStandardizeRejectsInvalid(t *testing.T) {
	p := NewProblem(Minimize, 1)
	p.AddConstraint([]Term{{Var: 7, Coef: 1}}, LE, 1)
	if _, err := Standardize(p); err == nil {
		t.Fatal("invalid problem must be rejected")
	}
}

func TestIterLimitStatus(t *testing.T) {
	// A solvable problem with MaxIter=1 must stop with IterLimit, not hang
	// or mis-report.
	p := paperFig5Problem()
	for _, s := range []Solver{Dense{MaxIter: 1}, Network{MaxIter: 1}} {
		sol, err := s.Solve(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		if sol.Status != IterLimit {
			t.Fatalf("%s: status %v, want iteration-limit", s.Name(), sol.Status)
		}
	}
}

func TestProblemString(t *testing.T) {
	p := NewProblem(Minimize, 3)
	p.Names = []string{"l01", "l02", ""}
	p.SetObjective(0, 1)
	p.SetObjective(1, 1)
	p.SetObjective(2, -2)
	p.SetUpper(0, 9)
	p.AddConstraint([]Term{{Var: 0, Coef: 1}, {Var: 1, Coef: -1}}, EQ, 8)
	s := p.String()
	for _, want := range []string{"minimize", "l01", "l02", "- 2 x2", "l01 - l02 = 8", "0 <= l01 <= 9"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() missing %q:\n%s", want, s)
		}
	}
}

func TestProblemStringEmptyAndMax(t *testing.T) {
	p := NewProblem(Maximize, 1)
	p.AddConstraint(nil, LE, 5)
	s := p.String()
	if !strings.Contains(s, "maximize  0") || !strings.Contains(s, "0 <= 5") {
		t.Fatalf("degenerate rendering wrong:\n%s", s)
	}
}

func TestObjectiveHelper(t *testing.T) {
	p := NewProblem(Minimize, 2)
	p.SetObjective(0, 2)
	p.SetObjective(1, -1)
	if got := Objective(p, []float64{3, 4}); got != 2 {
		t.Fatalf("objective = %g, want 2", got)
	}
}

func TestCheckFeasibleLengthMismatch(t *testing.T) {
	p := NewProblem(Minimize, 2)
	if err := CheckFeasible(p, []float64{1}, 1e-9); err == nil {
		t.Fatal("length mismatch must error")
	}
}

func TestRelString(t *testing.T) {
	if LE.String() != "<=" || EQ.String() != "=" || GE.String() != ">=" {
		t.Fatal("relation strings wrong")
	}
	if Rel(99).String() != "?" {
		t.Fatal("unknown relation should render '?'")
	}
}

func TestStatusString(t *testing.T) {
	for s, want := range map[Status]string{
		Optimal:    "optimal",
		Infeasible: "infeasible",
		Unbounded:  "unbounded",
		IterLimit:  "iteration-limit",
		Status(99): "unknown",
	} {
		if s.String() != want {
			t.Fatalf("%d → %q, want %q", s, s.String(), want)
		}
	}
}

func TestIsInfHelper(t *testing.T) {
	if !IsInf(math.Inf(1)) || IsInf(1.0) || IsInf(math.Inf(-1)) {
		t.Fatal("IsInf wrong")
	}
}
