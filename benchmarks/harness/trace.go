package harness

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// A span is one call from the harness into a layer's public function.
// Spans are recorded by the harness around the calls (nothing inside the
// program is instrumented), kept in memory, and written as one JSON file
// when the run ends.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // span that caused this one; -1 at the root
	Op     int    `json:"op"`     // op (request) the span belongs to; -1 = set-up
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the trace began
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"` // duration minus the part child spans cover
}

type tracer struct {
	t0    time.Time
	spans []span
	stack []int
	op    int
}

func newTracer() *tracer { return &tracer{t0: time.Now(), op: -1} }

// begin opens a span under the innermost open one and returns its id.
func (t *tracer) begin(name string) int {
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: t.op, Name: name})
	t.stack = append(t.stack, id)
	t.spans[id].Start = int64(time.Since(t.t0))
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	now := int64(time.Since(t.t0))
	if n := len(t.stack); n == 0 || t.stack[n-1] != id {
		panic(fmt.Sprintf("harness: span %d closed out of order", id))
	}
	t.stack = t.stack[:len(t.stack)-1]
	t.spans[id].End = now
}

// finish computes every span's self time.
func (t *tracer) finish() {
	for i := range t.spans {
		t.spans[i].Self = t.spans[i].End - t.spans[i].Start
	}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			t.spans[s.Parent].Self -= s.End - s.Start
		}
	}
}

// perOp returns, for every op that has at least one span of the given
// name, the summed duration of those spans in the unit scale (1e3 = µs,
// 1e6 = ms), in op order.
func (t *tracer) perOp(name string, scale float64) []float64 {
	var out []float64
	last := -2
	for _, s := range t.spans {
		if s.Name != name || s.Op < 0 {
			continue
		}
		d := float64(s.End-s.Start) / scale
		if s.Op == last {
			out[len(out)-1] += d
		} else {
			out = append(out, d)
			last = s.Op
		}
	}
	return out
}

func (t *tracer) write(path, workload string, seed int64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, t.spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
