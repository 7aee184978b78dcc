package engine

import (
	"context"
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/mesh"
	"repro/internal/partition"
	"repro/internal/spectral"
)

// callDigest folds the assignment and CutAfter of one Repartition call
// into d.
func callDigest(d hash.Hash64, a *partition.Assignment, st *Stats) {
	var buf [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		d.Write(buf[:])
	}
	put(uint64(len(a.Part)))
	for _, q := range a.Part {
		put(uint64(int64(q)))
	}
	c := st.CutAfter
	put(uint64(c.Total))
	put(math.Float64bits(c.TotalWeight))
	put(math.Float64bits(c.Max))
	put(math.Float64bits(c.Min))
	for _, w := range c.PerPart {
		put(math.Float64bits(w))
	}
}

// repartitionAll runs a refining engine bound to g on a after edit(k)
// for each of calls calls and returns the FNV-64a digest of every call's
// assignment and CutAfter.
func repartitionAll(t *testing.T, g *graph.Graph, a *partition.Assignment, calls int, edit func(k int)) uint64 {
	t.Helper()
	e := New(g, Options{Refine: true})
	d := fnv.New64a()
	for k := 0; k < calls; k++ {
		edit(k)
		st, err := e.Repartition(context.Background(), a)
		if err != nil {
			t.Fatalf("call %d: %v", k, err)
		}
		callDigest(d, a, st)
	}
	return d.Sum64()
}

// meshGrowthHistory refines a 1200-vertex mesh in a drifting disk, 40
// vertices a call, under an RSB partition into 32: the paper's mesh
// workloads in miniature.
func meshGrowthHistory(t *testing.T) uint64 {
	gen, err := mesh.NewGenerator(1200, 11)
	if err != nil {
		t.Fatal(err)
	}
	g := gen.Mesh().Graph()
	part, err := spectral.RSB(g, 32, spectral.Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	a := &partition.Assignment{Part: part, P: 32}
	return repartitionAll(t, g, a, 6, func(k int) {
		center := geom.Point{X: 0.4 + 0.1*math.Cos(float64(k)), Y: 0.5 + 0.1*math.Sin(float64(k))}
		if _, err := gen.RefineDisk(center, 0.15, 40); err != nil {
			t.Fatal(err)
		}
		if err := gen.Mesh().UpdateGraph(g); err != nil {
			t.Fatal(err)
		}
	})
}

// burstGridHistory absorbs a striped grid's 150-vertex burst, then three
// smaller bursts attached at random vertices.
func burstGridHistory(t *testing.T) uint64 {
	rng := rand.New(rand.NewSource(13))
	g, a := burstGrid(24, 48, 6, 150, rng)
	return repartitionAll(t, g, a, 4, func(k int) {
		if k > 0 {
			attachVertices(g, a, rng, graph.Vertex(rng.Intn(g.Order())), 30)
		}
	})
}

// powerLawHistory refines a 2000-vertex power-law graph split into 8 id
// blocks, then absorbs two 240-vertex growth bursts.
func powerLawHistory(t *testing.T) uint64 {
	g, err := graph.PowerLaw(2000, 3, rand.New(rand.NewSource(17)))
	if err != nil {
		t.Fatal(err)
	}
	a := partition.New(g.Order(), 8)
	for v := range a.Part {
		a.Part[v] = int32(v * 8 / g.Order())
	}
	return repartitionAll(t, g, a, 3, func(k int) {
		if k > 0 {
			growthBurst(g, a, int64(k))
		}
	})
}

func TestRepartitionLocked(t *testing.T) {
	// A flat refining engine's output is pinned across changes to the
	// code: the digests were recorded, equal at 1 and 4 workers, while the
	// boundary sync and layering still sharded over a worker group, and
	// any change to the sync, phase 1, layering's labels or pool order,
	// the balance mover or refinement moves at least one of them.
	// mesh-p32 was re-recorded when balance stages began deepening only
	// partitions whose tight bound has a strictly negative reduced cost:
	// its stages then accept another vertex of a degenerate optimal face
	// (same ε and Σ flows), the other two histories did not move.
	for _, tc := range []struct {
		name    string
		history func(*testing.T) uint64
		want    uint64
	}{
		{"mesh-p32", meshGrowthHistory, 0xb2ad5e35472fcf49},
		{"burst-grid", burstGridHistory, 0x5ef8490eb05094af},
		{"powerlaw-p8", powerLawHistory, 0xe4717bea339b7545},
	} {
		if got := tc.history(t); got != tc.want {
			t.Errorf("%s: digest %#x, want %#x", tc.name, got, tc.want)
		}
	}
}
