package engine

import (
	"context"
	"errors"
	"testing"
)

// TestClose locks the Close contract: idempotent, every later call
// fails with ErrClosed (or returns nil views), and state cloned before
// the close survives it.
func TestClose(t *testing.T) {
	g, a := editableGraph(t, 200, 4, 7)
	e := New(g, Options{})
	st, err := e.Repartition(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	kept := st.Clone()
	if e.Closed() {
		t.Fatal("engine reports closed before Close")
	}
	if err := e.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if !e.Closed() {
		t.Fatal("Closed() false after Close")
	}
	if e.Graph() != g {
		t.Fatal("Graph() changed by Close")
	}

	if _, err := e.Repartition(context.Background(), a); !errors.Is(err, ErrClosed) {
		t.Fatalf("Repartition after Close: want ErrClosed, got %v", err)
	}
	if _, err := e.Layer(context.Background(), a); !errors.Is(err, ErrClosed) {
		t.Fatalf("Layer after Close: want ErrClosed, got %v", err)
	}
	if _, err := e.Gains(a, false); !errors.Is(err, ErrClosed) {
		t.Fatalf("Gains after Close: want ErrClosed, got %v", err)
	}
	if s := e.Snapshot(a); s != nil {
		t.Fatal("Snapshot after Close: want nil")
	}
	if b := e.Boundary(a); b != nil {
		t.Fatal("Boundary after Close: want nil")
	}
	if c := e.Cut(a); c.Total != 0 || c.PerPart != nil {
		t.Fatalf("Cut after Close: want zero value, got %+v", c)
	}

	// The pre-close clone must be untouched by the release.
	if len(kept.EpsilonUsed) != kept.Stages {
		t.Fatalf("clone lists %d epsilons for %d stages", len(kept.EpsilonUsed), kept.Stages)
	}
	if len(kept.CutAfter.PerPart) != a.P {
		t.Fatalf("clone PerPart len %d, want %d", len(kept.CutAfter.PerPart), a.P)
	}
}
