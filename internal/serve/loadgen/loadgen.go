// Package loadgen drives an igpserve instance over real HTTP: it
// creates a pool of graph sessions, hammers them with concurrent edit
// submissions, and reports latency quantiles, throughput, and the shed
// ledger. It drives `igpbench -table serve` (several writers per
// session) and the `igpserve -smoke` self-check the CI serve job boots.
package loadgen

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"time"
)

// Options shapes one load-generation run.
type Options struct {
	// BaseURL is the igpserve root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Sessions is the number of graph sessions created and driven
	// (default 1).
	Sessions int
	// Workers is the number of concurrent submitters (default 4). Each
	// worker round-robins across the sessions with its own seeded rng.
	Workers int
	// Requests is the number of submissions per worker (default 50).
	// When Duration > 0 it is ignored and workers run until the clock
	// expires.
	Requests int
	// Duration, when > 0, bounds the run by wall clock instead of a
	// request count.
	Duration time.Duration
	// EditsPerRequest is the size of each submission's edit list
	// (default 4): a mix of vertex-weight updates and attach_vertex
	// growth, the adaptive-mesh shape.
	EditsPerRequest int
	// TimeoutMS, when > 0, attaches a per-request deadline so the run
	// also exercises deadline shedding.
	TimeoutMS int
	// MeshN and P shape each session's graph (defaults 400 and 8).
	MeshN int
	P     int
	// Seed makes the workload reproducible.
	Seed int64
}

func (o Options) withDefaults() Options {
	if o.Sessions < 1 {
		o.Sessions = 1
	}
	if o.Workers < 1 {
		o.Workers = 4
	}
	if o.Requests < 1 {
		o.Requests = 50
	}
	if o.EditsPerRequest < 1 {
		o.EditsPerRequest = 4
	}
	if o.MeshN < 1 {
		o.MeshN = 400
	}
	if o.P < 2 {
		o.P = 8
	}
	return o
}

// Result is the run's ledger: every submission is attempted + exactly
// one of served/shed/failed, with latency quantiles over the served
// ones.
type Result struct {
	Sessions int   `json:"sessions"`
	Workers  int   `json:"workers"`
	Requests int64 `json:"requests"`
	Served   int64 `json:"served"`
	// Shed counts typed admission-control rejections (HTTP 429/504/410)
	// — expected under overload, never a correctness failure.
	Shed int64 `json:"shed"`
	// Failed counts everything else: transport errors and non-2xx
	// statuses outside the shed set. A healthy run has zero.
	Failed  int64         `json:"failed"`
	Elapsed time.Duration `json:"elapsed_ns"`
	// Latency quantiles over served requests (submit to response).
	P50 time.Duration `json:"p50_ns"`
	P90 time.Duration `json:"p90_ns"`
	P99 time.Duration `json:"p99_ns"`
	// Throughput is served requests per second.
	Throughput float64 `json:"rps"`
}

type graphInfo struct {
	ID       string `json:"id"`
	Vertices int    `json:"n"`
}

// Run executes one load generation against opts.BaseURL and returns
// the aggregate result. The created sessions are left in place (the
// server owns their lifecycle; idle eviction or shutdown reclaims
// them).
func Run(opts Options) (Result, error) {
	opts = opts.withDefaults()
	client := &http.Client{}

	sessions := make([]graphInfo, opts.Sessions)
	for i := range sessions {
		info, err := createGraph(client, opts.BaseURL, opts.MeshN, opts.Seed+int64(i), opts.P)
		if err != nil {
			return Result{}, fmt.Errorf("loadgen: create session %d: %w", i, err)
		}
		sessions[i] = info
	}

	var (
		mu        sync.Mutex
		latencies []time.Duration
		res       = Result{Sessions: opts.Sessions, Workers: opts.Workers}
	)
	deadline := time.Time{}
	if opts.Duration > 0 {
		deadline = time.Now().Add(opts.Duration)
	}

	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < opts.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(opts.Seed*1000 + int64(w)))
			var mine []time.Duration
			var attempted, served, shed, failed int64
			for i := 0; ; i++ {
				if deadline.IsZero() {
					if i >= opts.Requests {
						break
					}
				} else if time.Now().After(deadline) {
					break
				}
				sess := sessions[(w+i)%len(sessions)]
				body := editsBody(rng, sess.Vertices, opts.EditsPerRequest, opts.TimeoutMS)
				attempted++
				t0 := time.Now()
				status, err := postEdits(client, opts.BaseURL, sess.ID, body)
				d := time.Since(t0)
				switch {
				case err != nil:
					failed++
				case status == http.StatusOK:
					served++
					mine = append(mine, d)
				case status == http.StatusTooManyRequests,
					status == http.StatusGatewayTimeout,
					status == http.StatusGone:
					shed++
				default:
					failed++
				}
			}
			mu.Lock()
			res.Requests += attempted
			res.Served += served
			res.Shed += shed
			res.Failed += failed
			latencies = append(latencies, mine...)
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	res.Elapsed = time.Since(start)

	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	if len(latencies) > 0 {
		at := func(q float64) time.Duration {
			return latencies[int(q*float64(len(latencies)-1))]
		}
		res.P50, res.P90, res.P99 = at(0.50), at(0.90), at(0.99)
	}
	if s := res.Elapsed.Seconds(); s > 0 {
		res.Throughput = float64(res.Served) / s
	}
	return res, nil
}

func createGraph(client *http.Client, base string, meshN int, seed int64, p int) (graphInfo, error) {
	spec := fmt.Sprintf(`{"mesh_n": %d, "seed": %d, "p": %d}`, meshN, seed, p)
	resp, err := client.Post(base+"/graphs", "application/json", bytes.NewReader([]byte(spec)))
	if err != nil {
		return graphInfo{}, err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusCreated {
		return graphInfo{}, fmt.Errorf("status %d: %s", resp.StatusCode, body)
	}
	var info graphInfo
	if err := json.Unmarshal(body, &info); err != nil {
		return graphInfo{}, err
	}
	return info, nil
}

// editsBody builds one submission: mostly vertex-weight churn with some
// attach_vertex growth, all against the session's original vertices so
// every edit is valid regardless of interleaving.
func editsBody(rng *rand.Rand, n int, edits, timeoutMS int) []byte {
	var b bytes.Buffer
	b.WriteString(`{"edits": [`)
	for i := 0; i < edits; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		if rng.Intn(4) == 0 {
			fmt.Fprintf(&b, `{"op": "attach_vertex", "u": %d, "v": %d}`, rng.Intn(n), rng.Intn(n))
		} else {
			fmt.Fprintf(&b, `{"op": "set_vertex_weight", "u": %d, "weight": %.3f}`, rng.Intn(n), 1+rng.Float64()*3)
		}
	}
	b.WriteString(`]`)
	if timeoutMS > 0 {
		fmt.Fprintf(&b, `, "timeout_ms": %d`, timeoutMS)
	}
	b.WriteString(`}`)
	return b.Bytes()
}

func postEdits(client *http.Client, base, id string, body []byte) (int, error) {
	resp, err := client.Post(base+"/graphs/"+id+"/edits", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, nil
}

// Metrics fetches the server's /metrics snapshot as raw JSON fields
// (the caller picks what it needs without importing the serve package).
func Metrics(baseURL string) (map[string]json.Number, error) {
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var m map[string]json.Number
	dec := json.NewDecoder(resp.Body)
	dec.UseNumber()
	if err := dec.Decode(&m); err != nil {
		return nil, err
	}
	return m, nil
}
