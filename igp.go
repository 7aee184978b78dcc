// Package igp is an open-source reproduction of Ou & Ranka, "Parallel
// Incremental Graph Partitioning Using Linear Programming"
// (Supercomputing '94).
//
// It provides:
//
//   - a mutable undirected graph type supporting the paper's incremental
//     edit model (vertices/edges added and deleted between phases);
//   - Recursive Spectral Bisection (RSB) for from-scratch partitioning —
//     the paper's baseline and initial-partition source;
//   - the four-phase Incremental Graph Partitioner: nearest-partition
//     assignment of new vertices, boundary layering, minimal-movement
//     load balancing by linear programming, and LP-based cut refinement
//     (the paper's IGP and IGPR variants);
//   - two simplex implementations (a network simplex on a spanning
//     tree for production, the paper's dense tableau as its oracle)
//     behind a pluggable, named Solver registry;
//   - a message-passing machine simulator calibrated to a 32-node CM-5,
//     with an SPMD parallel implementation of the whole pipeline that
//     charges each LP as a column-distributed dense simplex; and
//   - DIME-style adaptive triangular mesh generation (incremental
//     Delaunay with localized refinement) reproducing the paper's two
//     experimental mesh families.
//
// # Quick start
//
// The primary surface is an [Engine]: a long-lived session bound to one
// graph, configured once with functional options that are validated
// eagerly at construction. The application loop edits the graph and
// calls Repartition with a context that bounds each repair:
//
//	g, _ := igp.NewMeshGraph(1000, 42)       // or build a Graph by hand
//	a, _ := igp.PartitionRSB(g, 32, 42)      // initial partition
//	eng, _ := igp.NewEngine(g, igp.WithRefine(), igp.WithTolerance(2))
//	for {
//		// ... the application refines its mesh: g gains vertices/edges ...
//		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
//		stats, err := eng.Repartition(ctx, a)
//		cancel()
//		if errors.Is(err, igp.ErrCanceled) {
//			// deadline hit mid-solve: a is still valid, just unbalanced —
//			// retry with a looser budget or repartition from scratch.
//		}
//		fmt.Println(stats.Elapsed, stats.PhaseTimings.Balance, igp.Cut(g, a).Total)
//	}
//
// One-shot callers use [Repartition], which builds a throwaway engine;
// severe growth can be absorbed gradually with [WithBatches]. Stage-level
// progress streams to a [WithObserver] callback, per-phase wall-clock and
// LP pivot totals land in [Stats], and alternative simplex
// implementations — including out-of-tree ones added via
// [RegisterSolver] — are selected by name with [WithSolver].
package igp

import (
	"fmt"
	"io"

	"repro/internal/balance"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/layering"
	"repro/internal/lp"
	"repro/internal/mesh"
	"repro/internal/partition"
	"repro/internal/spectral"
)

// Graph is the mutable undirected weighted graph all partitioning
// operates on. See NewGraph; the zero value is also ready to use.
type Graph = graph.Graph

// Vertex identifies a graph vertex.
type Vertex = graph.Vertex

// Assignment maps vertices to partitions.
type Assignment = partition.Assignment

// CutStats reports cutset quality (the paper's Total/Max/Min columns).
type CutStats = partition.CutStats

// Stats reports what one Repartition call did: the paper's IGP(k) stage
// count, the balance LP's v and c, the cut around balancing and
// refinement, per-phase wall clock, and why the engine took the path it
// took. The *Stats an [Engine] returns is an arena overwritten by its next
// call; use Stats.Clone to retain one. The one-shot [Repartition] returns
// a fresh value every time.
type Stats = engine.Stats

// PhaseTimings is the per-phase wall-clock breakdown in [Stats].
type PhaseTimings = engine.PhaseTimings

// LevelStats reports what one [WithMultilevel] Repartition did at one
// hierarchy level; see Stats.Levels.
type LevelStats = engine.LevelStats

// Unassigned marks vertices without a partition.
const Unassigned = partition.Unassigned

// NewGraph returns an empty graph with capacity for n vertices.
func NewGraph(n int) *Graph { return graph.New(n) }

// NewGraphWithVertices returns a graph with n unit-weight vertices.
func NewGraphWithVertices(n int) *Graph { return graph.NewWithVertices(n) }

// ReadGraph decodes a graph from the textual format written by WriteGraph.
func ReadGraph(r io.Reader) (*Graph, error) { return graph.Read(r) }

// WriteGraph encodes g in a deterministic text format.
func WriteGraph(w io.Writer, g *Graph) error { return graph.Write(w, g) }

// ReadAssignment decodes a partition assignment ("vertex partition" lines
// with an optional header). order and p supply the dimensions for
// headerless files; the header overrides them.
func ReadAssignment(r io.Reader, order, p int) (*Assignment, error) {
	return partition.ReadAssignment(r, order, p)
}

// WriteAssignment encodes a partition assignment.
func WriteAssignment(w io.Writer, a *Assignment) error {
	return partition.WriteAssignment(w, a)
}

// NewMeshGraph builds the node-adjacency graph of a fresh ~n-vertex
// unstructured triangular mesh (a DIME-style workload), deterministic in
// seed.
func NewMeshGraph(n int, seed int64) (*Graph, error) {
	gen, err := mesh.NewGenerator(n, seed)
	if err != nil {
		return nil, err
	}
	return gen.Mesh().Graph(), nil
}

// MeshSequence is a base mesh graph plus incremental refinements — the
// workload family of the paper's experiments. Step graphs preserve vertex
// identities, so they can be fed directly to Repartition.
type MeshSequence = mesh.Sequence

// PaperMeshA generates the paper's first experimental family: a
// ~1071-vertex mesh chained through four localized refinements
// (+25, +25, +31, +40 vertices).
func PaperMeshA(seed int64) (*MeshSequence, error) { return mesh.PaperSequenceA(seed) }

// PaperMeshB generates the paper's second family: a ~10166-vertex mesh
// with four independent refinements (+48, +139, +229, +672 vertices).
func PaperMeshB(seed int64) (*MeshSequence, error) { return mesh.PaperSequenceB(seed) }

// GenerateMeshSequence builds a custom chained refinement sequence: a
// ~baseN-vertex mesh refined by growth[i] vertices at step i in a
// drifting localized hotspot.
func GenerateMeshSequence(baseN int, growth []int, seed int64) (*MeshSequence, error) {
	return mesh.GenerateChained(baseN, growth, seed)
}

// PartitionRSB partitions g into p parts from scratch with recursive
// spectral bisection.
func PartitionRSB(g *Graph, p int, seed int64) (*Assignment, error) {
	part, err := spectral.RSB(g, p, spectral.Options{Seed: seed})
	if err != nil {
		return nil, err
	}
	return &Assignment{Part: part, P: p}, nil
}

// Cut computes cutset statistics for a on g.
func Cut(g *Graph, a *Assignment) CutStats { return partition.Cut(g, a) }

// Imbalance returns max/mean partition weight (1.0 = perfectly balanced).
func Imbalance(g *Graph, a *Assignment) float64 { return partition.Imbalance(g, a) }

// DescribeBalanceLP formats the load-balancing linear program the next
// Repartition call would solve for (g, a) — the paper's Figure 5 view:
// movability bounds δ(i,j) and per-partition flow-balance equalities.
func DescribeBalanceLP(g *Graph, a *Assignment) (string, error) {
	lay, err := layering.Layer(g, a)
	if err != nil {
		return "", err
	}
	sizes := a.Sizes(g)
	targets := partition.Targets(g.NumVertices(), a.P)
	m, err := balance.Formulate(lay.Delta, sizes, targets, 1)
	if err != nil {
		return "", err
	}
	var b []byte
	b = append(b, "minimize  Σ l(i,j)\nsubject to\n"...)
	for v, pr := range m.Pairs {
		b = append(b, fmt.Sprintf("  0 ≤ l(%d,%d) ≤ %g\n", pr[0], pr[1], m.Prob.Upper[v])...)
	}
	for j, rhs := range m.RHS {
		b = append(b, fmt.Sprintf("  outflow(%d) − inflow(%d) = %d\n", j, j, rhs)...)
	}
	vars, cons := lp.DenseSize(m.Prob)
	b = append(b, fmt.Sprintf("dense form: v = %d variables, c = %d constraints\n", vars, cons)...)
	return string(b), nil
}
