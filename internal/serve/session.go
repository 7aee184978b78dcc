package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	igp "repro"
)

// request is one admitted edit submission waiting in a session queue.
type request struct {
	ctx     context.Context
	edits   []Edit
	resp    chan result // buffered(1): the session's single response never blocks
	enq     time.Time
	editErr error // first invalid edit, set during batch application
	applied int   // edits applied before the failure (all of them on success)
}

type result struct {
	resp *Response
	err  error
}

// Response answers one served edit submission.
type Response struct {
	// Version is the assignment version the request's batch produced;
	// GET /graphs/{id}/assignment at this version (or later) reflects
	// the request's edits.
	Version uint64 `json:"version"`
	// Metrics is the per-request observability record.
	Metrics RequestMetrics `json:"metrics"`
}

// Session is one long-lived partitioning session: a graph, its
// assignment, and a warm igp.Engine, owned by a single goroutine that
// applies edit batches and runs repartitions — so the engine's
// arena-owned results never race and every concurrent client sees one
// serialized edit stream. Clients talk to it only through Server.Submit
// and the snapshot accessors.
type Session struct {
	id  string
	srv *Server

	// Owned by the run goroutine (and the constructor, which
	// happens-before it).
	g      *igp.Graph
	a      *igp.Assignment
	eng    *igp.Engine
	events int // observer event count; bumped on the run goroutine via the engine observer

	// Admission gate: enqueue checks closed and performs the bounded,
	// non-blocking queue send under mu, so a closing session can drain
	// deterministically — after closed is set no new request can slip
	// into the queue.
	mu     sync.Mutex
	closed bool
	queue  chan *request

	stop     chan struct{} // closed by Server.Close / DropGraph
	stopOnce sync.Once
	done     chan struct{} // closed when the run goroutine has fully shut down

	// The published assignment, the only copy outside the engine:
	// publish stores a fresh snapshot after every successful repartition
	// and readers load it without a lock and without the run goroutine.
	snap atomic.Pointer[snapshot]

	batchBuf []*request
	liveBuf  []*request
}

// snapshot is one published assignment version. It is immutable once
// stored, except that the first GET to ask for it encodes the reply
// body, which every later GET of the same version then shares.
type snapshot struct {
	version uint64
	p       int
	parts   []int32
	once    sync.Once
	body    []byte
}

// ID returns the session's graph id.
func (s *Session) ID() string { return s.id }

// Assignment returns the published assignment snapshot: its version
// (bumped by every successful repartition), the partition count, and a
// copy of the per-vertex partition ids (index = vertex id; -1 =
// unassigned/dead slot).
func (s *Session) Assignment() (version uint64, p int, parts []int32) {
	sn := s.snap.Load()
	return sn.version, sn.p, append([]int32(nil), sn.parts...)
}

// assignmentBody returns the GET /graphs/{id}/assignment reply for the
// current snapshot, exactly what json.Encoder writes for its
// assignmentReply. The slice is shared between readers: do not modify.
func (s *Session) assignmentBody() []byte {
	sn := s.snap.Load()
	sn.once.Do(func() {
		var buf bytes.Buffer
		// Encoding integers into a buffer cannot fail.
		_ = json.NewEncoder(&buf).Encode(assignmentReply{Version: sn.version, P: sn.p, Parts: sn.parts})
		sn.body = buf.Bytes()
		s.srv.metrics.snapshotEncodes.Add(1)
	})
	s.srv.metrics.assignmentReads.Add(1)
	return sn.body
}

// publish stores the current assignment as the next snapshot version and
// returns that version (the priming call publishes version 1).
// Constructor and run goroutine only.
func (s *Session) publish() uint64 {
	version := uint64(1)
	if prev := s.snap.Load(); prev != nil {
		version = prev.version + 1
	}
	s.snap.Store(&snapshot{version: version, p: s.a.P, parts: append([]int32(nil), s.a.Part...)})
	return version
}

// enqueue admits r into the session queue, shedding with ErrQueueFull
// when the bounded queue is at capacity and ErrSessionClosed once the
// session is shutting down.
func (s *Session) enqueue(r *request) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrSessionClosed
	}
	select {
	case s.queue <- r:
		return nil
	default:
		return ErrQueueFull
	}
}

// run is the session goroutine: wait for a request, take whatever else
// queued behind it into one batch, process it with a single warm
// repartition, repeat. Idle eviction and server shutdown both land
// here, so the engine is always closed on the goroutine that owns it.
func (s *Session) run() {
	defer close(s.done)
	var (
		idleC <-chan time.Time
		idle  *time.Timer
	)
	if d := s.srv.cfg.IdleTimeout; d > 0 {
		idle = time.NewTimer(d)
		defer idle.Stop()
		idleC = idle.C
	}
	for {
		select {
		case r := <-s.queue:
			batch := s.collect(r)
			s.process(batch)
			if idle != nil {
				if !idle.Stop() {
					select {
					case <-idle.C:
					default:
					}
				}
				idle.Reset(s.srv.cfg.IdleTimeout)
			}
		case <-idleC:
			s.shutdown()
			return
		case <-s.stop:
			s.shutdown()
			return
		}
	}
}

// collect forms the batch behind first without waiting: up to BatchSize
// requests, only those already queued. A request that finds the session
// idle is a batch of one; a batch grows only with what arrived while the
// previous batch's repartition ran. The returned slice is the session's
// reused batch arena.
func (s *Session) collect(first *request) []*request {
	batch := append(s.batchBuf[:0], first)
	// The run goroutine is the queue's only receiver, so what len
	// reports is there to take.
	n := min(len(s.queue), s.srv.cfg.BatchSize-1)
	for i := 0; i < n; i++ {
		batch = append(batch, <-s.queue)
	}
	s.batchBuf = batch
	return batch
}

// process serves one coalesced batch: shed already-expired requests,
// apply every live request's edits to the graph (one journal window),
// run a single warm repartition under the batch's merged deadline, then
// answer every request. A deadline abort maps to the typed ErrDeadline
// with the assignment left valid — applied edits stay in the graph and
// the next batch's repartition absorbs them, so shedding never
// corrupts the session.
func (s *Session) process(batch []*request) {
	start := time.Now()
	live := s.liveBuf[:0]
	for _, r := range batch {
		if r.ctx.Err() != nil {
			s.srv.metrics.shedDeadline.Add(1)
			s.respond(r, nil, fmt.Errorf("%w: %v", ErrDeadline, context.Cause(r.ctx)))
			continue
		}
		live = append(live, r)
	}
	s.liveBuf = live
	if len(live) == 0 {
		return
	}

	batchEdits := 0
	for _, r := range live {
		r.applied, r.editErr = applyEdits(s.g, r.edits)
		batchEdits += r.applied
	}

	ctx, cancel := batchContext(live)
	eventsBefore := s.events
	st, err := s.eng.Repartition(ctx, s.a)
	cancel()
	s.srv.metrics.observeBatch(len(live))
	s.srv.metrics.editsApplied.Add(int64(batchEdits))
	if err != nil {
		if errors.Is(err, igp.ErrCanceled) {
			// Deadline hit mid-repartition: the assignment is valid (the
			// engine never aborts mid-move), just not rebalanced yet.
			s.srv.metrics.shedDeadline.Add(int64(len(live)))
			for _, r := range live {
				s.respond(r, nil, fmt.Errorf("%w: %v", ErrDeadline, err))
			}
			return
		}
		for _, r := range live {
			s.respond(r, nil, fmt.Errorf("serve: repartition: %w", err))
		}
		return
	}

	// st is the engine's reused arena: every field the responses carry is
	// copied out here, before this goroutine's next engine call.
	m := RequestMetrics{
		BatchSize:      len(live),
		BatchEdits:     batchEdits,
		Repartition:    st.Elapsed,
		Assign:         st.PhaseTimings.Assign,
		Layer:          st.PhaseTimings.Layer,
		Balance:        st.PhaseTimings.Balance,
		Refine:         st.PhaseTimings.Refine,
		Stages:         st.Stages,
		LPIterations:   st.LPIterations,
		NewAssigned:    st.NewAssigned,
		Moved:          st.BalanceMoved + st.RefineMoved,
		CSRPatched:     st.CSRPatched,
		CutIncremental: st.CutIncremental,
		CutReused:      st.CutReused,
		Events:         s.events - eventsBefore,
		CutAfter:       st.CutAfter.TotalWeight,
	}
	version := s.publish()
	for _, r := range live {
		if r.editErr != nil {
			s.respond(r, nil, fmt.Errorf("serve: edit %d rejected: %w", r.applied, r.editErr))
			continue
		}
		m.QueueWait = start.Sub(r.enq)
		s.respond(r, &Response{Version: version, Metrics: m}, nil)
	}
}

// batchContext merges the batch's request deadlines into the engine
// context: the repartition gets the latest deadline across the batch —
// it serves every coalesced request, so it may run as long as the most
// patient one allows — and no deadline at all if any request has none.
func batchContext(live []*request) (context.Context, context.CancelFunc) {
	var latest time.Time
	for _, r := range live {
		d, ok := r.ctx.Deadline()
		if !ok {
			return context.WithCancel(context.Background())
		}
		if d.After(latest) {
			latest = d
		}
	}
	return context.WithDeadline(context.Background(), latest)
}

// respond delivers the request's single response and releases its
// global in-flight slot. Exactly one respond call happens per admitted
// request — from process, the expired pre-check, or the shutdown drain.
func (s *Session) respond(r *request, resp *Response, err error) {
	if err == nil {
		s.srv.metrics.served.Add(1)
		s.srv.metrics.latency.observe(time.Since(r.enq))
	} else if !isShed(err) {
		s.srv.metrics.failed.Add(1)
	}
	r.resp <- result{resp, err}
	s.srv.release()
}

// shutdown ends the session: no new requests can enter (closed is set
// under mu), everything still queued is answered with ErrSessionClosed,
// the engine session is closed (releasing its arenas and LP bases
// deterministically), and the session leaves the pool.
func (s *Session) shutdown() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	for {
		select {
		case r := <-s.queue:
			s.respond(r, nil, ErrSessionClosed)
		default:
			s.eng.Close()
			s.srv.remove(s.id)
			return
		}
	}
}

// signalStop asks the run goroutine to shut down (idempotent).
func (s *Session) signalStop() {
	s.stopOnce.Do(func() { close(s.stop) })
}
