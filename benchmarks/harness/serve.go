package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	igp "repro"
	"repro/internal/partition"
	"repro/internal/serve"
)

// serveScript is the serve-mixed workload made concrete for a seed: the
// mesh sessions and every request body, recorded against a mirror of each
// session's graph so that no edit is ever rejected and the final
// assignment can be checked. A session belongs to one client, so its edit
// stream is serialized, batches never coalesce across requests, and every
// pass must reproduce the first one's assignments bit for bit.
type serveScript struct {
	specs   []serve.GraphSpec
	mirrors []*igp.Graph     // each session's graph after all its edits
	edits   [][][]serve.Edit // [session][iteration]
	bodies  [][][]byte       // the same, as POST bodies
	reads   int              // GETs after each POST
	genS    float64
}

const (
	serveClients  = 2 // closed-loop clients = keep-alive connections (nproc = 2)
	serveSessions = 4 // each client alternates between its two sessions
	serveEdits    = 6 // edits per POST
)

func buildServe(seed int64, short bool) (*serveScript, error) {
	t0 := time.Now()
	sc := &serveScript{reads: 8}
	iters := size(short, 100, 4)
	sub := rand.New(rand.NewSource(seed))
	for c := 0; c < serveSessions; c++ {
		spec := serve.GraphSpec{MeshN: size(short, 2000, 300), Seed: sub.Int63(), P: size(short, 16, 4)}
		g, err := igp.NewMeshGraph(spec.MeshN, spec.Seed)
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(sub.Int63()))
		var edits [][]serve.Edit
		var bodies [][]byte
		for i := 0; i < iters; i++ {
			req := make([]serve.Edit, serveEdits)
			for k := range req {
				u := rng.Intn(g.Order())
				if k == 0 && i%4 == c%4 && g.Degree(igp.Vertex(u)) > 0 {
					// Mesh growth on every fourth POST (a fixed share, so
					// the balance-LP work per run does not vary with the
					// seed's luck): a new vertex hooked to an edge's two ends.
					nb := g.Neighbors(igp.Vertex(u))
					req[k] = serve.Edit{Op: serve.OpAttachVertex, U: u, V: int(nb[rng.Intn(len(nb))])}
				} else {
					req[k] = serve.Edit{Op: serve.OpSetVertexWeight, U: u, V: -1, Weight: 1 + rng.Float64()}
				}
				if err := serve.ApplyEdit(g, req[k]); err != nil {
					return nil, fmt.Errorf("record edit: %w", err)
				}
			}
			body, err := json.Marshal(struct {
				Edits []serve.Edit `json:"edits"`
			}{req})
			if err != nil {
				return nil, err
			}
			edits = append(edits, req)
			bodies = append(bodies, body)
		}
		sc.specs = append(sc.specs, spec)
		sc.mirrors = append(sc.mirrors, g)
		sc.edits = append(sc.edits, edits)
		sc.bodies = append(sc.bodies, bodies)
	}
	sc.genS = time.Since(t0).Seconds()
	return sc, nil
}

// servePass is the outcome of one replay of the request script.
type servePass struct {
	setupS  float64
	wallS   float64
	editMS  []float64 // per request, client-major
	readUS  []float64
	readLen []float64
	queueMS []float64 // from the responses' RequestMetrics
	repMS   []float64
	cut     int
	heapMB  float64
	metrics serve.MetricsSnapshot
}

func bodyHash(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// replay runs the script once against a fresh server. With direct set the
// clients call Server.Submit and Session.Assignment themselves, bypassing
// HTTP. readHashes holds every GET body's hash from the first pass (filled
// when empty); every later pass must reproduce it. Client tracers, when
// given, record one span per request.
func (sc *serveScript) replay(direct bool, readHashes [][]uint64, trs []*tracer, fail *failures) (servePass, error) {
	var out servePass
	ctx := context.Background()
	h0 := heapAlloc()
	srv := serve.New(serve.Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	t0 := time.Now()
	ids := make([]string, len(sc.specs))
	for i, spec := range sc.specs {
		info, err := srv.CreateGraph(ctx, spec)
		if err != nil {
			return out, fmt.Errorf("create graph: %w", err)
		}
		ids[i] = info.ID
	}
	out.setupS = time.Since(t0).Seconds()

	per := serveSessions / serveClients // sessions per client
	iters := len(sc.bodies[0])          // per session
	nEdit := serveSessions * iters
	out.editMS = make([]float64, nEdit)
	out.queueMS = make([]float64, nEdit)
	out.repMS = make([]float64, nEdit)
	out.readUS = make([]float64, nEdit*sc.reads)
	out.readLen = make([]float64, nEdit*sc.reads)
	var (
		mu sync.Mutex // guards fail and out.cut
		wg sync.WaitGroup
	)
	failf := func(format string, args ...any) {
		mu.Lock()
		fail.add(format, args...)
		mu.Unlock()
	}
	start := make(chan struct{})
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := &serveClient{sc: sc, srv: srv, base: ts.URL, direct: direct, out: &out,
				http: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}}
			defer cl.http.CloseIdleConnections()
			if trs != nil {
				cl.tr = trs[c]
			}
			lastCut := make([]float64, per)
			<-start
			// The client alternates between its sessions: request e is
			// iteration i of session s.
			for n := 0; n < per*iters; n++ {
				s, i := c*per+n%per, n/per
				cut, err := cl.iteration(ids[s], s, i, readHashes)
				if err != nil {
					failf("session %d iteration %d: %v", s, i, err)
					return
				}
				lastCut[n%per] = cut
			}
			// Final-assignment validity against the mirror graphs.
			for k := 0; k < per; k++ {
				s := c*per + k
				sess, err := srv.Session(ids[s])
				if err != nil {
					failf("session %d: %v", s, err)
					continue
				}
				_, p, parts := sess.Assignment()
				cut, err := checkState(sc.mirrors[s], &partition.Assignment{Part: parts, P: p}, int(lastCut[k]))
				if err != nil {
					failf("session %d final assignment: %v", s, err)
				}
				mu.Lock()
				out.cut += cut
				mu.Unlock()
			}
		}(c)
	}
	t0 = time.Now()
	close(start)
	wg.Wait()
	out.wallS = time.Since(t0).Seconds()
	out.metrics = srv.Metrics()
	out.heapMB = (heapAlloc() - h0) / (1 << 20)
	return out, nil
}

// serveClient is one closed-loop client: it sends its next request only
// after the previous one completed, over one keep-alive connection.
type serveClient struct {
	sc     *serveScript
	srv    *serve.Server
	http   *http.Client
	base   string // server URL
	direct bool
	tr     *tracer
	out    *servePass
	buf    bytes.Buffer
}

// fetch performs req and returns the body of a 200 response.
func (cl *serveClient) fetch(method, url string, body []byte) ([]byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := cl.http.Do(req)
	if err != nil {
		return nil, err
	}
	cl.buf.Reset()
	_, err = io.Copy(&cl.buf, resp.Body)
	resp.Body.Close()
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(cl.buf.Bytes()))
	}
	return cl.buf.Bytes(), err
}

// span opens a span when the pass is traced; the returned func closes it.
func (cl *serveClient) span(name string) func() {
	if cl.tr == nil {
		return func() {}
	}
	id := cl.tr.begin(name)
	return func() { cl.tr.end(id) }
}

// iteration sends session s's i-th edit POST and the GETs that follow it,
// and returns the cut the response reported.
func (cl *serveClient) iteration(id string, s, i int, readHashes [][]uint64) (float64, error) {
	sc, out := cl.sc, cl.out
	e := s*len(sc.bodies[s]) + i
	if cl.tr != nil {
		cl.tr.op = e
	}
	var resp serve.Response
	var err error
	t := time.Now()
	if cl.direct {
		end := cl.span("serve.submit")
		var r *serve.Response
		if r, err = cl.srv.Submit(context.Background(), id, sc.edits[s][i]); err == nil {
			resp = *r
		}
		end()
	} else {
		end := cl.span("serve.http_edit")
		var body []byte
		if body, err = cl.fetch(http.MethodPost, cl.base+"/graphs/"+id+"/edits", sc.bodies[s][i]); err == nil {
			err = json.Unmarshal(body, &resp)
		}
		end()
	}
	out.editMS[e] = float64(time.Since(t)) / 1e6
	if err != nil {
		return 0, fmt.Errorf("edit: %w", err)
	}
	// The session has one client: batches never coalesce, the priming
	// call is version 1 and edit i yields version i+2.
	if resp.Version != uint64(i+2) {
		return 0, fmt.Errorf("edit: version %d, want %d", resp.Version, i+2)
	}
	out.queueMS[e] = float64(resp.Metrics.QueueWait) / 1e6
	out.repMS[e] = float64(resp.Metrics.Repartition) / 1e6
	if cl.direct {
		return resp.Metrics.CutAfter, nil
	}
	for k := 0; k < sc.reads; k++ {
		r := e*sc.reads + k
		end := cl.span("serve.http_read")
		t := time.Now()
		body, err := cl.fetch(http.MethodGet, cl.base+"/graphs/"+id+"/assignment", nil)
		out.readUS[r] = float64(time.Since(t)) / 1e3
		end()
		if err != nil {
			return 0, fmt.Errorf("read %d: %w", k, err)
		}
		out.readLen[r] = float64(len(body))
		if k > 0 {
			continue // same version as k = 0: same bytes
		}
		h := bodyHash(body)
		if len(readHashes[s]) <= i {
			readHashes[s] = append(readHashes[s], h)
		} else if readHashes[s][i] != h {
			return 0, fmt.Errorf("read: assignment diverged from the first pass")
		}
	}
	return resp.Metrics.CutAfter, nil
}

// runServe measures serve-mixed the way runEngine measures the engine
// workloads: passes until the budget is spent, per-request minima, and in
// a traced run one more HTTP pass under per-client tracers plus one pass
// that bypasses HTTP.
func runServe(cfg Config) (*Result, error) {
	sc, err := buildServe(cfg.Seed, cfg.Short)
	if err != nil {
		return nil, fmt.Errorf("generate: %w", err)
	}
	var (
		fail       failures
		readHashes = make([][]uint64, serveSessions)
		bestEdit   []float64
		bestRead   []float64
		setups     []float64
		walls      []float64
		passP50    []float64
		last       servePass
	)
	refs, err := passes(cfg, &fail, func(n int) error {
		p, err := sc.replay(false, readHashes, nil, &fail)
		if err != nil || fail.n > 0 {
			return err
		}
		bestEdit = minInto(bestEdit, p.editMS)
		bestRead = minInto(bestRead, p.readUS)
		setups = append(setups, p.setupS)
		walls = append(walls, p.wallS)
		passP50 = append(passP50, median(p.editMS))
		if n > 0 && p.cut != last.cut {
			fail.add("pass %d ends at cut %d, the pass before at %d", n, p.cut, last.cut)
		}
		last = p
		return nil
	})
	if err != nil {
		return nil, err
	}
	attempted := serveSessions * len(sc.bodies[0]) * (1 + sc.reads)
	if fail.n > 0 {
		return values{}.result(defs(cfg.Trace), attempted, &fail), nil
	}
	v := values{
		"setup_s":       minOf(setups),
		"repart_p50_ms": median(bestEdit),
		"repart_per_s":  closedLoopRate(bestEdit, bestRead, sc.reads),
		"cut":           float64(last.cut),
		"heap_mb":       last.heapMB,
	}
	if !cfg.Trace {
		return v.result(EndToEnd, attempted, &fail), nil
	}

	trs := make([]*tracer, serveClients)
	t0 := time.Now()
	for c := range trs {
		trs[c] = &tracer{t0: t0, op: -1}
	}
	tp, err := sc.replay(false, readHashes, trs, &fail)
	if err != nil {
		return nil, err
	}
	dp, err := sc.replay(true, readHashes, trs, &fail)
	if err != nil {
		return nil, err
	}
	merged := mergeTracers(trs)
	if cfg.SpansPath != "" {
		if err := merged.write(cfg.SpansPath, cfg.Workload, cfg.Seed); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
	}
	m := tp.metrics
	v["serve.edit_p50_ms"] = median(tp.editMS)
	v["serve.submit_ms"] = median(dp.editMS)
	v["serve.http_overhead_ms"] = median(tp.editMS) - median(dp.editMS)
	v["serve.queue_wait_ms"] = median(tp.queueMS)
	v["serve.repartition_ms"] = median(tp.repMS)
	v["serve.coalesce_ratio"] = float64(m.RequestsServed) / float64(m.RepartitionsRun-int64(serveSessions))
	v["serve.read_p50_us"] = median(bestRead)
	v["serve.read_bytes"] = median(tp.readLen)
	v["serve.req_per_s"] = float64(attempted) / minOf(walls) // all requests, best pass by the wall clock
	v["serve.shed"] = float64(m.ShedQueueFull + m.ShedOverloaded + m.ShedDeadline)
	v["spectral.init_count"] = float64(serveSessions) // CreateGraph partitions each session by RSB
	benchMetrics(v, sc.genS, refs, passP50, median(tp.editMS))
	return v.result(PerLayer, attempted, &fail), nil
}

// closedLoopRate is the edit iterations per second the closed-loop
// clients sustain, taken — like the engine workloads' repart_per_s — over
// the per-request minima: each client's iterations divided by the sum of
// its requests' fastest times (an iteration is one POST and the GETs
// behind it), summed over the clients, which run in parallel.
func closedLoopRate(editMS, readUS []float64, reads int) float64 {
	rate := 0.0
	per := len(editMS) / serveClients // requests are stored client-major
	for c := 0; c < serveClients; c++ {
		busyS := sum(editMS[c*per:(c+1)*per])/1e3 + sum(readUS[c*per*reads:(c+1)*per*reads])/1e6
		rate += float64(per) / busyS
	}
	return rate
}

// mergeTracers concatenates the clients' spans into one trace.
func mergeTracers(trs []*tracer) *tracer {
	out := &tracer{}
	for _, tr := range trs {
		tr.finish()
		off := len(out.spans)
		for _, s := range tr.spans {
			s.ID += off
			if s.Parent >= 0 {
				s.Parent += off
			}
			out.spans = append(out.spans, s)
		}
	}
	return out
}
