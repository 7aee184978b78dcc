package lp

import (
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
		tab, err := newTableau(p, true)
		if err != nil {
			t.Fatal(err)
		}
		vars, cons := DenseSize(p)
		if vars != tab.nCols || cons != len(tab.rows) {
			t.Fatalf("trial %d: DenseSize = (%d,%d), tableau = (%d,%d)", trial, vars, cons, tab.nCols, len(tab.rows))
		}
	}
}
