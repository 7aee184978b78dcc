package partition

import (
	"bufio"
	"fmt"
	"io"
	"math"
)

// WriteAssignment encodes a as "vertex partition" lines (unassigned slots
// are omitted), preceded by a header recording the slot count and P.
func WriteAssignment(w io.Writer, a *Assignment) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "igp-assignment %d %d\n", len(a.Part), a.P)
	for v, q := range a.Part {
		if q >= 0 {
			fmt.Fprintf(bw, "%d %d\n", v, q)
		}
	}
	return bw.Flush()
}

// ReadAssignment decodes an assignment written by WriteAssignment. Files
// without the header are accepted for interoperability: pass the slot
// count and partition count explicitly via defaults (order, p); the
// header, when present, overrides them. Vertex and partition ids are
// int32, so an order above 2³¹ or a P above 2³¹−1 is an error.
func ReadAssignment(r io.Reader, order, p int) (*Assignment, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	var a *Assignment
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		if line == 1 {
			var ho, hp int
			if n, _ := fmt.Sscanf(text, "igp-assignment %d %d", &ho, &hp); n == 2 {
				order, p = ho, hp
				continue
			}
		}
		if a == nil {
			if order <= 0 || p <= 0 {
				return nil, fmt.Errorf("partition: read assignment: no header and no explicit dimensions")
			}
			var err error
			if a, err = newSized(order, p); err != nil {
				return nil, err
			}
		}
		var v, q int
		if _, err := fmt.Sscanf(text, "%d %d", &v, &q); err != nil {
			return nil, fmt.Errorf("partition: read assignment line %d: %w", line, err)
		}
		if v < 0 || v >= order || q < 0 || q >= p {
			return nil, fmt.Errorf("partition: read assignment line %d: vertex %d / partition %d out of range (order %d, P %d)", line, v, q, order, p)
		}
		a.Part[v] = int32(q)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if a == nil {
		if order <= 0 || p <= 0 {
			return nil, fmt.Errorf("partition: read assignment: empty input and no explicit dimensions")
		}
		return newSized(order, p)
	}
	return a, nil
}

// newSized allocates ReadAssignment's result once the dimensions are
// known to fit the int32 ids.
func newSized(order, p int) (*Assignment, error) {
	if order > math.MaxInt32+1 || p > math.MaxInt32 {
		return nil, fmt.Errorf("partition: read assignment: order %d / P %d beyond the int32 ids", order, p)
	}
	return New(order, p), nil
}
