package graph

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// The text format is a simplified METIS-like format:
//
//	igp-graph <order> <edges>
//	v <id> <weight>            (one line per live vertex)
//	e <u> <v> <weight>         (one line per undirected edge, u < v)
//
// Lines beginning with '#' are comments. Vertex ids must be dense in
// [0, order); ids not listed are dead slots.

// Write encodes g in the text format. Adjacency order does not affect the
// encoding: edges are emitted with u < v in increasing order.
func Write(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "igp-graph %d %d\n", g.Order(), g.NumEdges())
	for v := 0; v < g.Order(); v++ {
		if g.Alive(Vertex(v)) {
			fmt.Fprintf(bw, "v %d %g\n", v, g.VertexWeight(Vertex(v)))
		}
	}
	for v := 0; v < g.Order(); v++ {
		if !g.Alive(Vertex(v)) {
			continue
		}
		nbrs := g.Neighbors(Vertex(v))
		ws := g.EdgeWeights(Vertex(v))
		for i, u := range nbrs {
			if Vertex(v) < u {
				fmt.Fprintf(bw, "e %d %d %g\n", v, u, ws[i])
			}
		}
	}
	return bw.Flush()
}

// parseWeight parses a vertex or edge weight, accepting only finite
// values ≥ 0.
func parseWeight(s string) (float64, bool) {
	w, err := strconv.ParseFloat(s, 64)
	return w, err == nil && w >= 0 && !math.IsInf(w, 0)
}

// Read decodes a graph from the text format produced by Write. Ids must
// fit a Vertex, and weights must be finite and ≥ 0.
func Read(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	if !sc.Scan() {
		return nil, fmt.Errorf("graph: read: empty input")
	}
	var order, edges int
	if _, err := fmt.Sscanf(sc.Text(), "igp-graph %d %d", &order, &edges); err != nil {
		return nil, fmt.Errorf("graph: read: bad header %q: %w", sc.Text(), err)
	}
	if order < 0 || order > math.MaxInt32 || edges < 0 {
		return nil, fmt.Errorf("graph: read: bad header %q: counts out of range", sc.Text())
	}
	g := New(order)
	live := make([]bool, order)
	weights := make([]float64, order)
	type edge struct {
		u, v Vertex
		w    float64
	}
	var es []edge
	line := 1
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		switch fields[0] {
		case "v":
			if len(fields) != 3 {
				return nil, fmt.Errorf("graph: read line %d: bad vertex line %q", line, text)
			}
			id, err1 := strconv.ParseInt(fields[1], 10, 32)
			w, ok := parseWeight(fields[2])
			if err1 != nil || !ok || id < 0 || id >= int64(order) {
				return nil, fmt.Errorf("graph: read line %d: bad vertex line %q", line, text)
			}
			live[id] = true
			weights[id] = w
		case "e":
			if len(fields) != 4 {
				return nil, fmt.Errorf("graph: read line %d: bad edge line %q", line, text)
			}
			u, err1 := strconv.ParseInt(fields[1], 10, 32)
			v, err2 := strconv.ParseInt(fields[2], 10, 32)
			w, ok := parseWeight(fields[3])
			if err1 != nil || err2 != nil || !ok {
				return nil, fmt.Errorf("graph: read line %d: bad edge line %q", line, text)
			}
			es = append(es, edge{Vertex(u), Vertex(v), w})
		default:
			return nil, fmt.Errorf("graph: read line %d: unknown record %q", line, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: read: %w", err)
	}
	for i := 0; i < order; i++ {
		v := g.AddVertex(weights[i])
		_ = v
	}
	for i := 0; i < order; i++ {
		if !live[i] {
			g.alive[i] = false
			g.dead++
		}
	}
	for _, e := range es {
		if err := g.AddEdge(e.u, e.v, e.w); err != nil {
			return nil, fmt.Errorf("graph: read: %w", err)
		}
	}
	if g.NumEdges() != edges {
		return nil, fmt.Errorf("graph: read: header says %d edges, found %d", edges, g.NumEdges())
	}
	return g, nil
}
