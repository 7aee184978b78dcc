package mesh

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/geom"
	"repro/internal/graph"
)

// Generator builds meshes with controllable size and localized
// refinements, standing in for the paper's DIME environment.
type Generator struct {
	rng  *rand.Rand
	mesh *Mesh
}

// NewGenerator builds a base mesh of approximately n vertices from a
// jittered-grid point set (even spacing like a real unstructured mesh,
// irregular like Fig. 10's test graphs). The construction is
// deterministic for a given seed.
func NewGenerator(n int, seed int64) (*Generator, error) {
	if n < 4 {
		return nil, fmt.Errorf("mesh: generator needs n ≥ 4, got %d", n)
	}
	rng := rand.New(rand.NewSource(seed))
	side := int(math.Round(math.Sqrt(float64(n))))
	if side < 2 {
		side = 2
	}
	pts := make([]geom.Point, 0, n)
	for i := 0; len(pts) < n; i++ {
		r := i / side
		c := i % side
		if r >= side {
			// Grid exhausted before n points (rounding): sprinkle randomly.
			pts = append(pts, geom.Point{X: rng.Float64(), Y: rng.Float64()})
			continue
		}
		jx := (rng.Float64() - 0.5) * 0.72
		jy := (rng.Float64() - 0.5) * 0.72
		pts = append(pts, geom.Point{
			X: (float64(c) + 0.5 + jx) / float64(side),
			Y: (float64(r) + 0.5 + jy) / float64(side),
		})
	}
	m, err := NewDelaunay(pts)
	if err != nil {
		return nil, err
	}
	return &Generator{rng: rng, mesh: m}, nil
}

// Mesh returns the underlying mesh.
func (g *Generator) Mesh() *Mesh { return g.mesh }

// RefineDisk inserts count new vertices inside the disk around center,
// each at the centroid of an existing triangle whose centroid lies in the
// disk (DIME-style localized h-refinement). It retries with jitter on
// numerically degenerate insertions and returns the ids of the new
// vertices. A negative count is an error.
func (g *Generator) RefineDisk(center geom.Point, radius float64, count int) ([]int, error) {
	if count < 0 {
		return nil, fmt.Errorf("mesh: refine count %d is negative", count)
	}
	added := make([]int, 0, count)
	for len(added) < count {
		// Pick the triangle with the largest circumradius among those in
		// the disk, so refinement stays smooth like a real mesher.
		tris := g.mesh.Triangles()
		bestArea := -1.0
		var bestC geom.Point
		for _, t := range tris {
			a := g.mesh.Point(int(t[0]))
			b := g.mesh.Point(int(t[1]))
			c := g.mesh.Point(int(t[2]))
			cen := geom.Centroid(a, b, c)
			if cen.Dist(center) > radius {
				continue
			}
			area := math.Abs(geom.Orient(a, b, c))
			if area > bestArea {
				bestArea = area
				bestC = cen
			}
		}
		if bestArea < 0 {
			return added, fmt.Errorf("mesh: no triangle inside refinement disk (center %v radius %g)", center, radius)
		}
		p := bestC
		var vid int
		var err error
		for attempt := 0; attempt < 8; attempt++ {
			vid, err = g.mesh.Insert(p)
			if err == nil {
				break
			}
			p = geom.Point{
				X: bestC.X + (g.rng.Float64()-0.5)*1e-6,
				Y: bestC.Y + (g.rng.Float64()-0.5)*1e-6,
			}
		}
		if err != nil {
			return added, fmt.Errorf("mesh: refine insert failed: %w", err)
		}
		added = append(added, vid)
	}
	return added, nil
}

// Step is one element of an incremental-mesh sequence.
type Step struct {
	// Graph is the node-adjacency graph after this step. Vertex ids are
	// stable across steps (earlier vertices keep their identifiers).
	Graph *graph.Graph
	// NewVertices counts vertices added relative to the previous step.
	NewVertices int
}

// Sequence is a base mesh graph plus a chain of refinements, mirroring the
// paper's experimental setups.
type Sequence struct {
	// Base is the initial mesh graph (the paper's Fig. 10 / Fig. 12).
	Base *graph.Graph
	// Points are the final mesh coordinates (useful for the RCB baseline);
	// prefixes correspond to earlier steps.
	Points []geom.Point
	// Steps are the successive refined graphs.
	Steps []Step
	// Chained reports whether each step refines the previous one (set A)
	// or the base (set B).
	Chained bool
}

// GenerateChained builds a base mesh of ~baseN vertices and a chain of
// localized refinements of the given sizes (each refining the previous
// mesh in a drifting hotspot), like the paper's mesh-A sequence
// 1071→1096→1121→1152→1192.
func GenerateChained(baseN int, growth []int, seed int64) (*Sequence, error) {
	gen, err := NewGenerator(baseN, seed)
	if err != nil {
		return nil, err
	}
	seq := &Sequence{Base: gen.mesh.Graph(), Chained: true}
	// Hotspot drifts slowly around a fixed anchor, keeping refinements
	// localized but not identical.
	anchor := geom.Point{X: 0.31, Y: 0.62}
	cur := seq.Base.Clone()
	for i, k := range growth {
		center := geom.Point{
			X: anchor.X + 0.08*math.Cos(float64(i)*1.1),
			Y: anchor.Y + 0.08*math.Sin(float64(i)*1.1),
		}
		if _, err := gen.RefineDisk(center, 0.16, k); err != nil {
			return nil, err
		}
		if err := gen.mesh.UpdateGraph(cur); err != nil {
			return nil, err
		}
		seq.Steps = append(seq.Steps, Step{Graph: cur.Clone(), NewVertices: k})
	}
	seq.Points = gen.mesh.Points()
	return seq, nil
}

// GenerateFanOut builds a base mesh of ~baseN vertices and several
// *independent* refinements of the base of the given sizes (the paper's
// mesh-B setup: 10166 + 48/139/229/672 nodes, each partitioned from the
// same base partitioning).
func GenerateFanOut(baseN int, growth []int, seed int64) (*Sequence, error) {
	seq := &Sequence{Chained: false}
	for i, k := range growth {
		gen, err := NewGenerator(baseN, seed) // same seed → identical base
		if err != nil {
			return nil, err
		}
		if i == 0 {
			seq.Base = gen.mesh.Graph()
		}
		base := gen.mesh.Graph()
		center := geom.Point{X: 0.68, Y: 0.33}
		// Radius grows with the refinement size so large refinements stay
		// feasible (enough triangles inside the disk to split smoothly).
		radius := 0.10 + 0.12*math.Sqrt(float64(k)/float64(baseN)*8)
		if _, err := gen.RefineDisk(center, radius, k); err != nil {
			return nil, err
		}
		if err := gen.mesh.UpdateGraph(base); err != nil {
			return nil, err
		}
		seq.Steps = append(seq.Steps, Step{Graph: base, NewVertices: k})
		if i == len(growth)-1 {
			seq.Points = gen.mesh.Points()
		}
	}
	return seq, nil
}

// PaperSequenceA reproduces the shape of the paper's first test set: a
// ~1071-vertex mesh refined four times by +25, +25, +31, +40 vertices in a
// localized area.
func PaperSequenceA(seed int64) (*Sequence, error) {
	return GenerateChained(1071, []int{25, 25, 31, 40}, seed)
}

// PaperSequenceB reproduces the shape of the paper's second test set: a
// ~10166-vertex mesh with four independent refinements of +48, +139,
// +229, +672 vertices.
func PaperSequenceB(seed int64) (*Sequence, error) {
	return GenerateFanOut(10166, []int{48, 139, 229, 672}, seed)
}
