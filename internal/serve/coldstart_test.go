package serve

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	igp "repro"
	"repro/internal/partition"
	"repro/internal/spectral"
)

// replaySession rebuilds a session's start on a private engine through
// newSession itself — the spec's graph, coldStart's initial partition,
// the priming call and the block start behind it — on a server that is
// never used again, so a test cannot drift from what CreateGraph does.
func replaySession(tb testing.TB, spec GraphSpec, opts ...igp.Option) (*igp.Graph, *igp.Assignment, *igp.Engine) {
	tb.Helper()
	sess, err := New(Config{EngineOptions: opts}).newSession(context.Background(), spec)
	if err != nil {
		tb.Fatalf("replay session start: %v", err)
	}
	return sess.g, sess.a, sess.eng
}

// rsbStart is the start sessions had before the V-cycle cold start, and
// still have on its fallback: recursive spectral bisection of the spec's
// graph, then one priming call on a fresh default engine. It returns the
// primed assignment, or the first error.
func rsbStart(spec GraphSpec) (*igp.Graph, *igp.Assignment, error) {
	g, err := buildGraph(spec)
	if err != nil {
		return nil, nil, err
	}
	part, err := spectral.RSBContext(context.Background(), g, spec.P, spectral.Options{Seed: spec.Seed})
	if err != nil {
		return nil, nil, err
	}
	a := &igp.Assignment{Part: part, P: spec.P}
	eng, err := igp.NewEngine(g)
	if err != nil {
		return nil, nil, err
	}
	defer eng.Close()
	if _, err := eng.Repartition(context.Background(), a); err != nil {
		return nil, nil, err
	}
	return g, a, nil
}

// checkExactBalance fails t unless a covers every vertex slot of g, every
// live vertex with a part in [0, P) and every dead one Unassigned, and the
// partition sizes are exactly partition.Targets.
func checkExactBalance(t *testing.T, g *igp.Graph, a *igp.Assignment) {
	t.Helper()
	if len(a.Part) != g.Order() {
		t.Fatalf("assignment has %d slots for %d vertex slots", len(a.Part), g.Order())
	}
	sizes := make([]int, a.P)
	for v, part := range a.Part {
		if live := g.Alive(igp.Vertex(v)); part < -1 || int(part) >= a.P || live != (part >= 0) {
			t.Fatalf("vertex %d (live %v) has part %d, p=%d", v, live, part, a.P)
		}
		if part >= 0 {
			sizes[part]++
		}
	}
	if want := partition.Targets(g.NumVertices(), a.P); !slices.Equal(sizes, want) {
		t.Fatalf("sizes %v, want exactly %v", sizes, want)
	}
}

// starSpec is a star: vertex 0 joined to each of leaves leaves.
func starSpec(leaves, p int, seed int64) GraphSpec {
	spec := GraphSpec{Vertices: leaves + 1, P: p, Seed: seed}
	for v := 1; v <= leaves; v++ {
		spec.Edges = append(spec.Edges, [2]int{0, v})
	}
	return spec
}

// hostileSpec builds one of the shapes the multilevel cold start cannot
// always balance, at ~200–500 vertices.
func hostileSpec(shape string, p int) GraphSpec {
	spec := GraphSpec{P: p, Seed: 1}
	switch shape {
	case "star":
		return starSpec(500, p, 1)
	case "isolated":
		spec.Vertices = 300
	case "cliques": // two 60-cliques, then 100 isolated vertices
		spec.Vertices = 220
		for c := 0; c < 2; c++ {
			for i := 0; i < 60; i++ {
				for j := i + 1; j < 60; j++ {
					spec.Edges = append(spec.Edges, [2]int{c*60 + i, c*60 + j})
				}
			}
		}
	case "forest": // a random recursive forest of about ten trees
		spec.Vertices = 500
		rng := rand.New(rand.NewSource(1))
		for v := 1; v < spec.Vertices; v++ {
			if rng.Intn(50) != 0 {
				spec.Edges = append(spec.Edges, [2]int{rng.Intn(v), v})
			}
		}
	case "path":
		spec.Vertices = 500
		for v := 1; v < spec.Vertices; v++ {
			spec.Edges = append(spec.Edges, [2]int{v - 1, v})
		}
	}
	return spec
}

// TestCreateGraphHostileShapes: on shapes whose partitions' quotient
// graph may not carry the balance flow, CreateGraph succeeds on every
// row, exactly balanced. parentOK records whether the RSB start alone
// succeeds; the block start (counted in block_starts) serves exactly the
// rows where it does not.
func TestCreateGraphHostileShapes(t *testing.T) {
	rows := []struct {
		shape    string
		p        int
		parentOK bool
	}{
		{"star", 2, true}, {"star", 5, true}, {"star", 16, false}, {"star", 64, false},
		{"isolated", 2, true}, {"isolated", 5, true}, {"isolated", 16, false}, {"isolated", 64, false},
		{"cliques", 2, true}, {"cliques", 5, true}, {"cliques", 16, false}, {"cliques", 64, false},
		{"forest", 2, true}, {"forest", 5, true}, {"forest", 16, true}, {"forest", 64, false},
		{"path", 2, true}, {"path", 5, true}, {"path", 16, true}, {"path", 64, true},
	}
	for _, row := range rows {
		spec := hostileSpec(row.shape, row.p)
		_, _, perr := rsbStart(spec)
		if (perr == nil) != row.parentOK {
			t.Errorf("%s p=%d: RSB start err = %v, table says parentOK = %v", row.shape, row.p, perr, row.parentOK)
		}
		srv := New(Config{})
		sess, err := srv.newSession(context.Background(), spec)
		if err != nil {
			t.Errorf("%s p=%d: %v", row.shape, row.p, err)
			continue
		}
		checkExactBalance(t, sess.g, sess.a)
		sess.eng.Close()
		want := int64(1)
		if row.parentOK {
			want = 0
		}
		if blocks := srv.Metrics().BlockStarts; blocks != want {
			t.Errorf("%s p=%d: block_starts = %d, want %d", row.shape, row.p, blocks, want)
		}
	}
}

// TestColdStartCutAgainstRSB: on the serve-mixed session shape (a
// 2000-vertex mesh at P = 16) the primed cold start's cut stays within
// 1.12× of the primed RSB start's.
func TestColdStartCutAgainstRSB(t *testing.T) {
	for _, seed := range []int64{1994, 7, 31337} {
		spec := GraphSpec{MeshN: 2000, Seed: seed, P: 16}
		g, a, eng := replaySession(t, spec)
		eng.Close()
		checkExactBalance(t, g, a)
		rg, ra, err := rsbStart(spec)
		if err != nil {
			t.Fatalf("seed %d: RSB start: %v", seed, err)
		}
		cold, rsb := igp.Cut(g, a).TotalWeight, igp.Cut(rg, ra).TotalWeight
		t.Logf("seed %d: cold-start cut %g, RSB start %g", seed, cold, rsb)
		if cold > 1.12*rsb {
			t.Errorf("seed %d: cold-start cut %g, RSB start %g: above 1.12×", seed, cold, rsb)
		}
	}
}

// TestColdStartFallbacksCounted: a 2000-leaf star at P = 16 is a graph
// the V-cycle cannot balance but the RSB start can, so CreateGraph
// succeeds through the fallback and /metrics counts it once; the four
// serve-mixed sessions of seed 1994 never fall back, and neither start
// needs the block start.
func TestColdStartFallbacksCounted(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	if _, err := srv.CreateGraph(context.Background(), starSpec(2000, 16, 3)); err != nil {
		t.Fatalf("CreateGraph(star): %v", err)
	}
	if m := srv.Metrics(); m.ColdStartFallbacks != 1 || m.BlockStarts != 0 {
		t.Fatalf("cold_start_fallbacks = %d, block_starts = %d after the star, want 1 and 0", m.ColdStartFallbacks, m.BlockStarts)
	}

	meshes := New(Config{})
	defer meshes.Close()
	sub := rand.New(rand.NewSource(1994))
	for c := 0; c < 4; c++ {
		spec := GraphSpec{MeshN: 2000, Seed: sub.Int63(), P: 16}
		sub.Int63() // the session's edit-stream seed, drawn as benchmarks/harness/serve.go draws it
		if _, err := meshes.CreateGraph(context.Background(), spec); err != nil {
			t.Fatalf("CreateGraph(mesh %d): %v", c, err)
		}
	}
	if m := meshes.Metrics(); m.ColdStartFallbacks != 0 || m.BlockStarts != 0 {
		t.Fatalf("cold_start_fallbacks = %d, block_starts = %d after the serve-mixed meshes, want 0 and 0", m.ColdStartFallbacks, m.BlockStarts)
	}
}
