package serve

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	igp "repro"
)

// editScript builds a deterministic burst of edit requests against a
// mesh with n0 original vertices. It only uses ops that stay valid no
// matter how the batch is ordered around them (attach_vertex and
// set_vertex_weight against original vertices, which nothing removes).
func editScript(n0, nreq, perReq int, seed int64) [][]Edit {
	rng := rand.New(rand.NewSource(seed))
	reqs := make([][]Edit, nreq)
	for i := range reqs {
		edits := make([]Edit, perReq)
		for j := range edits {
			if rng.Intn(2) == 0 {
				edits[j] = Edit{
					Op: OpAttachVertex,
					U:  rng.Intn(n0),
					V:  rng.Intn(n0),
				}
			} else {
				edits[j] = Edit{
					Op:     OpSetVertexWeight,
					U:      rng.Intn(n0),
					Weight: 1 + rng.Float64()*3,
				}
			}
		}
		reqs[i] = edits
	}
	return reqs
}

// submitDeterministic injects a burst into sess in a fixed order,
// bypassing Server.Submit so the batch's request order (and therefore
// the order edits hit the graph) is reproducible. It acquires the
// global in-flight slot each request, exactly as Submit would.
func submitDeterministic(t *testing.T, srv *Server, sess *Session, reqs [][]Edit) []*request {
	t.Helper()
	out := make([]*request, len(reqs))
	for i, edits := range reqs {
		select {
		case srv.inflight <- struct{}{}:
		default:
			t.Fatal("in-flight cap hit during deterministic submit")
		}
		r := &request{
			ctx:   context.Background(),
			edits: edits,
			resp:  make(chan result, 1),
			enq:   time.Now(),
		}
		if err := sess.enqueue(r); err != nil {
			t.Fatalf("enqueue request %d: %v", i, err)
		}
		out[i] = r
	}
	return out
}

// TestCoalescingEquivalence is the subsystem's correctness anchor: a
// coalesced batch of edit requests must produce exactly the assignment
// that applying the same edits and running one warm Repartition on a
// private engine produces. The queue is preloaded before the session
// goroutine starts, so how the burst splits into batches is exact: the
// requests behind the first one, BatchSize at a time.
func TestCoalescingEquivalence(t *testing.T) {
	cases := []struct {
		name   string
		meshN  int
		seed   int64
		p      int
		nreq   int
		batch  int // Config.BatchSize
		perReq int
		opts   []igp.Option
	}{
		{name: "mesh300_p4", meshN: 300, seed: 7, p: 4, nreq: 8, batch: 8, perReq: 5},
		{name: "mesh500_p8_refine", meshN: 500, seed: 21, p: 8, nreq: 6, batch: 6, perReq: 9,
			opts: []igp.Option{igp.WithRefine()}},
		{name: "mesh200_p4_batches", meshN: 200, seed: 3, p: 4, nreq: 5, batch: 5, perReq: 3,
			opts: []igp.Option{igp.WithBatches(2)}},
		// 7 queued requests at BatchSize 3: batches of 3, 3 and 1.
		{name: "mesh300_p4_split", meshN: 300, seed: 11, p: 4, nreq: 7, batch: 3, perReq: 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv := New(Config{BatchSize: tc.batch, EngineOptions: tc.opts})
			defer srv.Close()
			sess, err := srv.newSession(context.Background(), GraphSpec{MeshN: tc.meshN, Seed: tc.seed, P: tc.p})
			if err != nil {
				t.Fatalf("newSession: %v", err)
			}
			reqs := editScript(sess.g.NumVertices(), tc.nreq, tc.perReq, tc.seed*1000+1)
			pending := submitDeterministic(t, srv, sess, reqs)
			go sess.run()
			defer func() {
				sess.signalStop()
				<-sess.done
			}()

			batches := (tc.nreq + tc.batch - 1) / tc.batch
			coalesced := 0
			for b := 0; b < batches; b++ {
				if min(tc.batch, tc.nreq-b*tc.batch) > 1 {
					coalesced++
				}
			}
			for i, r := range pending {
				res := <-r.resp
				if res.err != nil {
					t.Fatalf("request %d: %v", i, res.err)
				}
				// Priming published version 1; batch b publishes b+2.
				if want := uint64(i/tc.batch + 2); res.resp.Version != want {
					t.Fatalf("request %d: version = %d, want %d", i, res.resp.Version, want)
				}
				if want := min(tc.batch, tc.nreq-i/tc.batch*tc.batch); res.resp.Metrics.BatchSize != want {
					t.Fatalf("request %d: batch size = %d, want %d", i, res.resp.Metrics.BatchSize, want)
				}
			}

			// Private-engine replay: same graph, same initial partition,
			// same priming call, then the same edits in the same order
			// with one warm repartition at each batch boundary.
			g2, a2, eng2 := replaySession(t, GraphSpec{MeshN: tc.meshN, Seed: tc.seed, P: tc.p}, tc.opts...)
			defer eng2.Close()
			for i, edits := range reqs {
				for _, e := range edits {
					if err := ApplyEdit(g2, e); err != nil {
						t.Fatalf("replay edit: %v", err)
					}
				}
				if (i+1)%tc.batch == 0 || i == len(reqs)-1 {
					if _, err := eng2.Repartition(context.Background(), a2); err != nil {
						t.Fatalf("replay warm repartition: %v", err)
					}
				}
			}

			version, p, parts := sess.Assignment()
			if version != uint64(batches+1) || p != tc.p {
				t.Fatalf("session snapshot: version=%d p=%d, want version=%d p=%d", version, p, batches+1, tc.p)
			}
			if len(parts) != len(a2.Part) {
				t.Fatalf("assignment length: session %d, replay %d", len(parts), len(a2.Part))
			}
			for v := range parts {
				if parts[v] != a2.Part[v] {
					t.Fatalf("vertex %d: session part %d != replay part %d", v, parts[v], a2.Part[v])
				}
			}

			snap := srv.Metrics()
			if snap.RequestsServed != int64(tc.nreq) {
				t.Fatalf("served = %d, want %d", snap.RequestsServed, tc.nreq)
			}
			// Coalescing means fewer repartitions (priming + one per
			// batch) than requests served.
			if snap.RepartitionsRun != int64(batches+1) || snap.RepartitionsRun >= snap.RequestsServed {
				t.Fatalf("repartitions = %d (served %d), want %d", snap.RepartitionsRun, snap.RequestsServed, batches+1)
			}
			if snap.CoalescedBatches != int64(coalesced) || snap.MaxBatchSize != int64(tc.batch) {
				t.Fatalf("coalesced=%d maxBatch=%d, want %d and %d", snap.CoalescedBatches, snap.MaxBatchSize, coalesced, tc.batch)
			}
		})
	}
}

// TestIdleSubmitDoesNotWait: a request that finds its session idle is a
// batch of one, processed as soon as the session goroutine wakes — no
// coalescing window is sat out.
func TestIdleSubmitDoesNotWait(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	info, err := srv.CreateGraph(context.Background(), GraphSpec{MeshN: 300, Seed: 4, P: 4})
	if err != nil {
		t.Fatalf("CreateGraph: %v", err)
	}
	waits := make([]time.Duration, 50)
	for i := range waits {
		resp, err := srv.Submit(context.Background(), info.ID, []Edit{{Op: OpSetVertexWeight, U: i, Weight: 2}})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if resp.Metrics.BatchSize != 1 {
			t.Fatalf("submit %d: batch size %d, want 1", i, resp.Metrics.BatchSize)
		}
		waits[i] = resp.Metrics.QueueWait
	}
	sort.Slice(waits, func(i, j int) bool { return waits[i] < waits[j] })
	if med := waits[len(waits)/2]; med >= time.Millisecond {
		t.Fatalf("median queue wait on an idle session = %v, want < 1ms", med)
	}
}

// TestMalformedEditsRejected: ids that do not fit a Vertex (the int32
// conversion would alias 1<<32 onto vertex 0) and weights that are
// negative or not finite are rejected per request, with nothing applied.
func TestMalformedEditsRejected(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	info, err := srv.CreateGraph(context.Background(), GraphSpec{MeshN: 150, Seed: 9, P: 2})
	if err != nil {
		t.Fatalf("CreateGraph: %v", err)
	}
	for _, e := range []Edit{
		{Op: OpRemoveVertex, U: 1 << 31},
		{Op: OpRemoveVertex, U: 1 << 32},
		{Op: OpSetVertexWeight, U: 1<<32 + 5, Weight: 3},
		{Op: OpRemoveVertex, U: -2},
		{Op: OpAttachVertex, U: 0, V: -2},
		{Op: OpAttachVertex, U: 0, V: 1 << 32},
		{Op: OpAddEdge, U: 0, V: 1<<32 + 140},
		{Op: OpRemoveEdge, U: 1 << 32, V: -1},
		{Op: OpSetVertexWeight, U: 5, Weight: -3},
		{Op: OpAddVertex, Weight: math.Inf(1)},
		{Op: OpAttachVertex, U: 0, V: -1, Weight: math.NaN()},
	} {
		_, err := srv.Submit(context.Background(), info.ID, []Edit{e})
		if err == nil || !strings.Contains(err.Error(), "edit 0 rejected") {
			t.Fatalf("%+v: err = %v, want 'edit 0 rejected'", e, err)
		}
		sess, err := srv.Session(info.ID)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, parts := sess.Assignment(); len(parts) != info.Vertices || parts[0] < 0 || parts[5] < 0 {
			t.Fatalf("%+v: rejected edit changed the graph: %d slots, parts[0]=%d parts[5]=%d", e, len(parts), parts[0], parts[5])
		}
	}
	checkHealthy(t, srv, info.ID) // sets vertex 0's weight: it is still alive

	for _, edge := range [][2]int{{0, 1 << 32}, {1<<32 + 1, 2}, {-1, 2}, {0, 3}} {
		_, err := srv.CreateGraph(context.Background(), GraphSpec{Vertices: 3, Edges: [][2]int{{0, 1}, {1, 2}, edge}, P: 2})
		if err == nil || !strings.Contains(err.Error(), "outside [0, 3)") {
			t.Fatalf("spec edge %v: err = %v, want a range rejection", edge, err)
		}
	}
}

// checkHealthy submits a fresh edit through the public path and
// requires a successful, valid response — the probe that a shed left
// the session serving.
func checkHealthy(t *testing.T, srv *Server, id string) {
	t.Helper()
	resp, err := srv.Submit(context.Background(), id, []Edit{{Op: OpSetVertexWeight, U: 0, Weight: 2}})
	if err != nil {
		t.Fatalf("follow-up submit after shed: %v", err)
	}
	sess, err := srv.Session(id)
	if err != nil {
		t.Fatalf("session after shed: %v", err)
	}
	version, p, parts := sess.Assignment()
	if version < resp.Version {
		t.Fatalf("published version %d behind response version %d", version, resp.Version)
	}
	for v, part := range parts {
		if part < -1 || int(part) >= p {
			t.Fatalf("vertex %d: part %d out of range for p=%d", v, part, p)
		}
	}
}

// TestDeadlineShedsLeaveSessionHealthy drives the deadline paths: a
// request whose context is already done is shed with the typed
// ErrDeadline (never a hard failure), and the session keeps serving
// afterwards — including when the deadline lands mid-repartition.
func TestDeadlineShedsLeaveSessionHealthy(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	info, err := srv.CreateGraph(context.Background(), GraphSpec{MeshN: 400, Seed: 5, P: 8})
	if err != nil {
		t.Fatalf("CreateGraph: %v", err)
	}

	edits := []Edit{{Op: OpAttachVertex, U: 1, V: 2}}

	// Pre-canceled context: deterministic shed.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := srv.Submit(ctx, info.ID, edits); !errors.Is(err, ErrDeadline) {
		t.Fatalf("canceled submit: err = %v, want ErrDeadline", err)
	}
	checkHealthy(t, srv, info.ID)

	// Expired deadline: deterministic shed via the same typed error.
	ctx2, cancel2 := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel2()
	if _, err := srv.Submit(ctx2, info.ID, edits); !errors.Is(err, ErrDeadline) {
		t.Fatalf("expired submit: err = %v, want ErrDeadline", err)
	}
	checkHealthy(t, srv, info.ID)

	// Tight-but-live deadlines: walk them down until one lands
	// mid-repartition (igp.ErrCanceled → ErrDeadline). Outcomes may be
	// success on a fast machine; every failure must be the typed shed
	// and must leave the session healthy.
	shed := false
	for _, d := range []time.Duration{2 * time.Millisecond, 500 * time.Microsecond, 50 * time.Microsecond} {
		grow := make([]Edit, 40)
		for i := range grow {
			grow[i] = Edit{Op: OpAttachVertex, U: i, V: i + 1}
		}
		ctx, cancel := context.WithTimeout(context.Background(), d)
		_, err := srv.Submit(ctx, info.ID, grow)
		cancel()
		if err != nil {
			if !errors.Is(err, ErrDeadline) {
				t.Fatalf("deadline %v: err = %v, want ErrDeadline", d, err)
			}
			shed = true
		}
		checkHealthy(t, srv, info.ID)
	}
	_ = shed // best-effort: the deterministic sheds above are the contract

	snap := srv.Metrics()
	if snap.RequestsFailed != 0 {
		t.Fatalf("failed = %d, want 0 (deadline sheds are not failures)", snap.RequestsFailed)
	}
}

// TestAdmissionControl exercises both shed stages deterministically:
// the global in-flight cap (ErrOverloaded) and the bounded session
// queue (ErrQueueFull), plus the closed-session refusal.
func TestAdmissionControl(t *testing.T) {
	t.Run("in-flight cap", func(t *testing.T) {
		srv := New(Config{MaxInFlight: 1})
		defer srv.Close()
		info, err := srv.CreateGraph(context.Background(), GraphSpec{MeshN: 100, Seed: 1, P: 2})
		if err != nil {
			t.Fatalf("CreateGraph: %v", err)
		}
		srv.inflight <- struct{}{} // occupy the only slot
		_, err = srv.Submit(context.Background(), info.ID, []Edit{{Op: OpAddVertex}})
		if !errors.Is(err, ErrOverloaded) {
			t.Fatalf("submit past cap: err = %v, want ErrOverloaded", err)
		}
		if got := srv.Metrics().ShedOverloaded; got != 1 {
			t.Fatalf("shed_overloaded = %d, want 1", got)
		}
		srv.release()
		if _, err := srv.Submit(context.Background(), info.ID, []Edit{{Op: OpAddVertex}}); err != nil {
			t.Fatalf("submit after slot freed: %v", err)
		}
	})

	t.Run("queue full", func(t *testing.T) {
		// A bare session whose run goroutine never starts: the queue
		// fills deterministically.
		sess := &Session{queue: make(chan *request, 1)}
		r := func() *request { return &request{resp: make(chan result, 1)} }
		if err := sess.enqueue(r()); err != nil {
			t.Fatalf("first enqueue: %v", err)
		}
		if err := sess.enqueue(r()); !errors.Is(err, ErrQueueFull) {
			t.Fatalf("second enqueue: err = %v, want ErrQueueFull", err)
		}
		sess.mu.Lock()
		sess.closed = true
		sess.mu.Unlock()
		if err := sess.enqueue(r()); !errors.Is(err, ErrSessionClosed) {
			t.Fatalf("enqueue after close: err = %v, want ErrSessionClosed", err)
		}
	})
}

// TestInvalidEditRejected: a request carrying an invalid edit gets a
// per-request error, prior edits in the request stay applied (the
// documented always-consistent contract), and the session keeps
// serving other requests.
func TestInvalidEditRejected(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	info, err := srv.CreateGraph(context.Background(), GraphSpec{MeshN: 150, Seed: 9, P: 2})
	if err != nil {
		t.Fatalf("CreateGraph: %v", err)
	}
	_, err = srv.Submit(context.Background(), info.ID, []Edit{
		{Op: OpSetVertexWeight, U: 0, Weight: 5},
		{Op: "bogus_op"},
	})
	if err == nil || !strings.Contains(err.Error(), "edit 1 rejected") {
		t.Fatalf("invalid edit: err = %v, want 'edit 1 rejected'", err)
	}
	if isShed(err) {
		t.Fatalf("invalid edit classified as shed: %v", err)
	}
	checkHealthy(t, srv, info.ID)
	if got := srv.Metrics().RequestsFailed; got != 1 {
		t.Fatalf("failed = %d, want 1", got)
	}
}

// TestIdleEviction: a session with an idle timeout evicts itself,
// closing its engine and leaving the pool; later requests see
// ErrNoGraph.
func TestIdleEviction(t *testing.T) {
	srv := New(Config{IdleTimeout: 20 * time.Millisecond})
	defer srv.Close()
	info, err := srv.CreateGraph(context.Background(), GraphSpec{MeshN: 100, Seed: 2, P: 2})
	if err != nil {
		t.Fatalf("CreateGraph: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := srv.Session(info.ID); errors.Is(err, ErrNoGraph) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("session not evicted after idle timeout")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := srv.Submit(context.Background(), info.ID, []Edit{{Op: OpAddVertex}}); !errors.Is(err, ErrNoGraph) {
		t.Fatalf("submit after eviction: err = %v, want ErrNoGraph", err)
	}
	if got := srv.Metrics().SessionsActive; got != 0 {
		t.Fatalf("sessions_active = %d, want 0", got)
	}
}

// TestCreateGraphCanceled: a done context stops the cold start itself
// (not just the priming repartition after it), and the failed create
// registers nothing.
func TestCreateGraphCanceled(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := srv.CreateGraph(ctx, GraphSpec{MeshN: 2000, Seed: 1, P: 16})
	if !errors.Is(err, context.Canceled) || !errors.Is(err, igp.ErrCanceled) || !strings.Contains(err.Error(), "initial partition") {
		t.Fatalf("CreateGraph with a canceled context: err = %v, want the initial partition canceled", err)
	}
	if m := srv.Metrics(); m.SessionsActive != 0 || m.GraphsCreated != 0 {
		t.Fatalf("after a canceled create: sessions_active = %d, graphs_created = %d, want 0 and 0", m.SessionsActive, m.GraphsCreated)
	}
}

// TestDropAndClose: explicit eviction and server shutdown both drain
// deterministically and refuse new work with typed errors.
func TestDropAndClose(t *testing.T) {
	srv := New(Config{})
	info1, err := srv.CreateGraph(context.Background(), GraphSpec{MeshN: 100, Seed: 1, P: 2})
	if err != nil {
		t.Fatalf("CreateGraph 1: %v", err)
	}
	info2, err := srv.CreateGraph(context.Background(), GraphSpec{MeshN: 100, Seed: 2, P: 2})
	if err != nil {
		t.Fatalf("CreateGraph 2: %v", err)
	}
	if err := srv.DropGraph(info1.ID); err != nil {
		t.Fatalf("DropGraph: %v", err)
	}
	if _, err := srv.Session(info1.ID); !errors.Is(err, ErrNoGraph) {
		t.Fatalf("dropped session lookup: err = %v, want ErrNoGraph", err)
	}
	if _, err := srv.Submit(context.Background(), info2.ID, []Edit{{Op: OpAddVertex}}); err != nil {
		t.Fatalf("submit to surviving session: %v", err)
	}
	srv.Close()
	srv.Close() // idempotent
	if _, err := srv.Submit(context.Background(), info2.ID, nil); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("submit after close: err = %v, want ErrServerClosed", err)
	}
	if _, err := srv.CreateGraph(context.Background(), GraphSpec{MeshN: 100, Seed: 3, P: 2}); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("create after close: err = %v, want ErrServerClosed", err)
	}
}

// TestConcurrentSubmitters hammers one session from many goroutines
// (the -race workhorse) and checks the ledger afterwards: every request
// is answered exactly once. How many of them share a repartition is up
// to the scheduler (on one CPU every batch can be a batch of one);
// TestCoalescingEquivalence holds the deterministic coalescing check.
func TestConcurrentSubmitters(t *testing.T) {
	srv := New(Config{BatchSize: 16, EngineOptions: []igp.Option{igp.WithRefine()}})
	defer srv.Close()
	info, err := srv.CreateGraph(context.Background(), GraphSpec{MeshN: 600, Seed: 13, P: 8})
	if err != nil {
		t.Fatalf("CreateGraph: %v", err)
	}
	const workers, perWorker = 8, 10
	errs := make(chan error, workers*perWorker)
	for w := 0; w < workers; w++ {
		go func(w int) {
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perWorker; i++ {
				_, err := srv.Submit(context.Background(), info.ID, []Edit{
					{Op: OpSetVertexWeight, U: rng.Intn(info.Vertices), Weight: 1 + rng.Float64()},
				})
				errs <- err
			}
		}(w)
	}
	for i := 0; i < workers*perWorker; i++ {
		if err := <-errs; err != nil && !isShed(err) {
			t.Fatalf("concurrent submit: %v", err)
		}
	}
	snap := srv.Metrics()
	if snap.RequestsServed == 0 {
		t.Fatal("no requests served")
	}
	if snap.RequestsServed+snap.ShedQueueFull+snap.ShedOverloaded+snap.ShedDeadline+snap.RequestsFailed < workers*perWorker {
		t.Fatalf("request ledger short: %+v", snap)
	}
}
