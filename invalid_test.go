package igp

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
)

// TestInvalidAssignmentIsAnError hands every repartitioning entry point
// an assignment it cannot hold — an id ≥ P on an old vertex, an id below
// Unassigned on a new one, P = 0 — cold and, for an Engine, warm. Each
// call returns an error matching ErrInvalidAssignment that names the
// vertex, its id and P, and changes no entry that was in range.
func TestInvalidAssignmentIsAnError(t *testing.T) {
	ctx := context.Background()
	entries := []struct {
		name string
		// run calls corrupt just before the call that must fail.
		run func(g *Graph, a *Assignment, corrupt func()) error
	}{
		{"Repartition", func(g *Graph, a *Assignment, corrupt func()) error {
			corrupt()
			_, err := Repartition(ctx, g, a, WithRefine())
			return err
		}},
		{"Engine", func(g *Graph, a *Assignment, corrupt func()) error {
			e, err := NewEngine(g, WithRefine())
			if err != nil {
				return err
			}
			defer e.Close()
			corrupt()
			_, err = e.Repartition(ctx, a)
			return err
		}},
		{"Engine/warm", func(g *Graph, a *Assignment, corrupt func()) error {
			e, err := NewEngine(g, WithRefine())
			if err != nil {
				return err
			}
			defer e.Close()
			if _, err := e.Repartition(ctx, a); err != nil {
				return err
			}
			corrupt()
			_, err = e.Repartition(ctx, a)
			return err
		}},
		{"WithBatches", func(g *Graph, a *Assignment, corrupt func()) error {
			corrupt()
			_, err := Repartition(ctx, g, a, WithBatches(3))
			return err
		}},
		{"WithMultilevel", func(g *Graph, a *Assignment, corrupt func()) error {
			corrupt()
			_, err := Repartition(ctx, g, a, WithMultilevel())
			return err
		}},
		{"SimulateParallelRepartition", func(g *Graph, a *Assignment, corrupt func()) error {
			corrupt()
			_, err := SimulateParallelRepartition(ctx, g, a, 3)
			return err
		}},
	}
	cases := []struct {
		name string
		// corrupt breaks a and returns what the error must say.
		corrupt func(g *Graph, a *Assignment) string
	}{
		{"id>=P", func(g *Graph, a *Assignment) string {
			a.Part[7] = int32(a.P)
			return "vertex 7 has partition 4 (P = 4)"
		}},
		{"id<Unassigned", func(g *Graph, a *Assignment) string {
			a.Grow(g.Order())
			v := g.Order() - 1
			a.Part[v] = Unassigned - 1
			return fmt.Sprintf("vertex %d has partition -2 (P = 4)", v)
		}},
		{"P=0", func(g *Graph, a *Assignment) string {
			a.P = 0
			return "P = 0"
		}},
	}
	for _, en := range entries {
		for _, tc := range cases {
			t.Run(en.name+"/"+tc.name, func(t *testing.T) {
				g, a := grownMesh(t, 200, 4, 10, 1)
				var before []int32
				var p int
				var want string
				err := en.run(g, a, func() {
					want = tc.corrupt(g, a)
					before, p = slices.Clone(a.Part), a.P
				})
				if !errors.Is(err, ErrInvalidAssignment) {
					t.Fatalf("error %v, want one matching ErrInvalidAssignment", err)
				}
				if !strings.Contains(err.Error(), want) {
					t.Fatalf("error %q does not say %q", err, want)
				}
				for v, q := range before {
					if q >= Unassigned && int(q) < p && a.Part[v] != q {
						t.Fatalf("vertex %d moved from %d to %d", v, q, a.Part[v])
					}
				}
			})
		}
	}
}
