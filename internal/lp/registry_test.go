package lp

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// TestRegisterRejections tables every rejected registration shape and
// checks Register's error against MustRegister's panic for each: the
// two entry points must agree case by case.
func TestRegisterRejections(t *testing.T) {
	cases := []struct {
		name    string
		regName string
		solver  Solver
		wantErr string // substring of the Register error / MustRegister panic
	}{
		{"empty name", "", Network{}, "empty solver name"},
		{"nil solver", "x-nil", nil, "nil solver"},
		{"duplicate built-in", "dense", Dense{}, "already registered"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := Register(tc.regName, tc.solver)
			if err == nil {
				t.Fatalf("Register(%q) succeeded, want error containing %q", tc.regName, tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Register(%q) error %q does not contain %q", tc.regName, err, tc.wantErr)
			}
			func() {
				defer func() {
					r := recover()
					if r == nil {
						t.Fatalf("MustRegister(%q) did not panic", tc.regName)
					}
					perr, ok := r.(error)
					if !ok {
						t.Fatalf("MustRegister(%q) panicked with %T, want error", tc.regName, r)
					}
					if !strings.Contains(perr.Error(), tc.wantErr) {
						t.Fatalf("MustRegister(%q) panic %q does not contain %q", tc.regName, perr, tc.wantErr)
					}
				}()
				MustRegister(tc.regName, tc.solver)
			}()
		})
	}
}

// TestMustRegisterAcceptsFreshName: the panic path is the only
// difference — a fresh name must register cleanly through MustRegister
// and then resolve.
func TestMustRegisterAcceptsFreshName(t *testing.T) {
	const name = "test-must-register-fresh"
	MustRegister(name, Network{})
	s, err := Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != "network" {
		t.Fatalf("resolved %q, want the registered network instance", s.Name())
	}
	found := false
	for _, n := range Names() {
		if n == name {
			found = true
		}
	}
	if !found {
		t.Fatalf("Names() does not list %q", name)
	}
}

// TestRegistryConcurrentLookupDuringRegister hammers Lookup and Names
// from many goroutines while others register fresh solvers — the
// registry's RWMutex discipline must hold under the race detector.
func TestRegistryConcurrentLookupDuringRegister(t *testing.T) {
	const (
		readers    = 8
		writers    = 4
		iterations = 200
	)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := 0; i < iterations; i++ {
				name := fmt.Sprintf("test-race-%d-%d-%d", w, i, testRaceRun)
				if err := Register(name, Network{}); err != nil {
					t.Errorf("Register(%q): %v", name, err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < iterations; i++ {
				if _, err := Lookup("dense"); err != nil {
					t.Errorf("Lookup: %v", err)
					return
				}
				if names := Names(); len(names) < 3 {
					t.Errorf("Names() lost entries: %v", names)
					return
				}
				if _, err := Lookup("definitely-missing"); err == nil {
					t.Error("missing name resolved")
					return
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	testRaceRun++
}

// testRaceRun keeps registered names unique if the test is run with
// -count > 1 (the registry has no unregister).
var testRaceRun int
