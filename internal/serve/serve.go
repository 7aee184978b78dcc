// Package serve is the deployment shape of the repartitioning engine: a
// long-lived service that multiplexes many concurrent partitioning
// sessions, one per graph, in front of the igp library.
//
// The four load-bearing ideas:
//
//   - Engine-session pool. Each graph id owns a Session — a graph, its
//     assignment, and a warm igp.Engine — driven by a single goroutine,
//     so the engine's single-threaded contract and arena-owned results
//     never meet concurrency. Idle sessions are evicted deterministically
//     via igp's Engine.Close.
//
//   - Natural batching. A submission that finds its session idle is
//     repartitioned at once; whatever queues while that repartition runs
//     (up to Config.BatchSize requests) is the next batch: all its edits
//     land in one journal window and are answered by ONE warm
//     Repartition — the graph's edit journal makes the merged window
//     exactly as cheap as the sum of its edits. Nothing ever waits on a
//     timer, so batches form exactly when the engine is the bottleneck.
//
//   - Snapshot reads. Every successful repartition publishes an
//     immutable, versioned copy of the assignment behind an atomic
//     pointer. Reads load it without a lock and without the session
//     goroutine, and GET /graphs/{id}/assignment writes a body encoded
//     once per version.
//
//   - Admission control. Per-session queues are bounded (ErrQueueFull),
//     a global in-flight cap sheds excess concurrent load
//     (ErrOverloaded), and request deadlines ride the engine's context
//     cancellation: a batch that overruns its merged deadline aborts
//     with igp.ErrCanceled, which maps to the typed ErrDeadline — the
//     assignment stays valid and the session keeps serving.
//
// HTTP/JSON bindings live in http.go; cmd/igpserve is the binary.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	igp "repro"
)

// The typed admission-control outcomes. Clients distinguish shed load
// (retryable: ErrQueueFull, ErrOverloaded, ErrDeadline) from hard
// failures by errors.Is.
var (
	// ErrQueueFull sheds a request because its session's bounded queue
	// is at capacity.
	ErrQueueFull = errors.New("serve: session queue full")
	// ErrOverloaded sheds a request because the server-wide in-flight
	// cap is reached.
	ErrOverloaded = errors.New("serve: server overloaded")
	// ErrDeadline sheds a request whose deadline expired before or
	// during its batch's repartition. The session stays healthy: edits
	// already applied are absorbed by the next repartition.
	ErrDeadline = errors.New("serve: request deadline exceeded")
	// ErrSessionClosed reports a request against a session that is
	// shutting down (evicted, dropped, or server close).
	ErrSessionClosed = errors.New("serve: session closed")
	// ErrNoGraph reports an unknown graph id.
	ErrNoGraph = errors.New("serve: no such graph")
	// ErrServerClosed reports a request against a closed server.
	ErrServerClosed = errors.New("serve: server closed")
)

// isShed reports whether err is an admission-control outcome rather
// than a hard failure.
func isShed(err error) bool {
	return errors.Is(err, ErrQueueFull) || errors.Is(err, ErrOverloaded) ||
		errors.Is(err, ErrDeadline) || errors.Is(err, ErrSessionClosed)
}

// Config tunes the server. The zero value is usable: every knob has a
// production-shaped default.
type Config struct {
	// BatchSize is the maximum number of requests coalesced into one
	// warm repartition (default 32, minimum 1).
	BatchSize int
	// QueueDepth bounds each session's request queue; a full queue
	// sheds with ErrQueueFull (default 64).
	QueueDepth int
	// MaxInFlight caps admitted-but-unanswered requests server-wide;
	// past it requests shed with ErrOverloaded (default 1024).
	MaxInFlight int
	// IdleTimeout evicts a session (closing its engine) after this long
	// without requests. 0 = never evict.
	IdleTimeout time.Duration
	// EngineOptions configures every session's engine (solver,
	// parallelism, refinement, tolerance, …). The server installs its
	// own WithObserver to feed per-request metrics; do not pass one.
	EngineOptions []igp.Option
}

// withDefaults resolves the zero-value knobs once, at New.
func (c Config) withDefaults() Config {
	if c.BatchSize < 1 {
		c.BatchSize = 32
	}
	if c.QueueDepth < 1 {
		c.QueueDepth = 64
	}
	if c.MaxInFlight < 1 {
		c.MaxInFlight = 1024
	}
	return c
}

// Server is the partitioning service: a pool of engine sessions keyed
// by graph id, with coalescing and admission control. Create with New;
// all methods are safe for concurrent use.
type Server struct {
	cfg      Config
	inflight chan struct{}
	metrics  serverMetrics

	mu       sync.RWMutex
	sessions map[string]*Session
	closed   bool
	nextID   atomic.Uint64
}

// New returns a Server with cfg's knobs (zero values = defaults).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	return &Server{
		cfg:      cfg,
		inflight: make(chan struct{}, cfg.MaxInFlight),
		sessions: make(map[string]*Session),
	}
}

// GraphSpec describes the graph a session is created over: either a
// DIME-style mesh (MeshN > 0, deterministic in Seed) or an explicit
// vertex/edge list. P is the partition count.
type GraphSpec struct {
	MeshN    int      `json:"mesh_n,omitempty"`
	Seed     int64    `json:"seed,omitempty"`
	Vertices int      `json:"vertices,omitempty"`
	Edges    [][2]int `json:"edges,omitempty"`
	P        int      `json:"p"`
}

// GraphInfo describes a created session.
type GraphInfo struct {
	ID       string `json:"id"`
	Vertices int    `json:"n"`
	Edges    int    `json:"m"`
	P        int    `json:"p"`
	Version  uint64 `json:"version"`
}

// maxGraphVertices caps the mesh_n / vertices a GraphSpec may ask for: a
// few hundred MB of graph and engine at most, whatever the body says.
const maxGraphVertices = 1 << 22

// buildGraph materializes the spec.
func buildGraph(spec GraphSpec) (*igp.Graph, error) {
	if spec.MeshN > maxGraphVertices || spec.Vertices > maxGraphVertices {
		return nil, fmt.Errorf("serve: graph spec: more than %d vertices", maxGraphVertices)
	}
	switch {
	case spec.MeshN > 0:
		return igp.NewMeshGraph(spec.MeshN, spec.Seed)
	case spec.Vertices > 0:
		g := igp.NewGraphWithVertices(spec.Vertices)
		for _, e := range spec.Edges {
			// Checked before the int → int32 conversion, which would
			// alias an out-of-range id onto a real vertex.
			if e[0] < 0 || e[0] >= spec.Vertices || e[1] < 0 || e[1] >= spec.Vertices {
				return nil, fmt.Errorf("serve: graph spec: edge {%d,%d} names a vertex outside [0, %d)", e[0], e[1], spec.Vertices)
			}
			if err := g.AddEdge(igp.Vertex(e[0]), igp.Vertex(e[1]), 1); err != nil {
				return nil, fmt.Errorf("serve: graph spec: %w", err)
			}
		}
		return g, nil
	default:
		return nil, fmt.Errorf("serve: graph spec: need mesh_n > 0 or vertices > 0")
	}
}

// newSession builds the spec'd graph, partitions it from scratch with
// RSB and primes a fresh engine session with one repartition (bounded by
// ctx), which pays the engine's first full snapshot build and publishes
// assignment version 1. The session is neither registered nor running:
// CreateGraph does both.
func (s *Server) newSession(ctx context.Context, spec GraphSpec) (*Session, error) {
	if spec.P < 2 {
		return nil, fmt.Errorf("serve: graph spec: p must be ≥ 2, got %d", spec.P)
	}
	g, err := buildGraph(spec)
	if err != nil {
		return nil, err
	}
	if g.NumVertices() < spec.P {
		return nil, fmt.Errorf("serve: graph spec: %d vertices for p=%d partitions", g.NumVertices(), spec.P)
	}
	a, err := igp.PartitionRSB(g, spec.P, spec.Seed)
	if err != nil {
		return nil, fmt.Errorf("serve: initial partition: %w", err)
	}

	sess := &Session{
		id:    fmt.Sprintf("g%d", s.nextID.Add(1)),
		srv:   s,
		g:     g,
		a:     a,
		queue: make(chan *request, s.cfg.QueueDepth),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	opts := append(append([]igp.Option(nil), s.cfg.EngineOptions...),
		igp.WithObserver(func(igp.Event) { sess.events++ }))
	sess.eng, err = igp.NewEngine(g, opts...)
	if err != nil {
		return nil, err
	}
	if _, err := sess.eng.Repartition(ctx, a); err != nil {
		sess.eng.Close()
		return nil, fmt.Errorf("serve: priming repartition: %w", err)
	}
	s.metrics.repartitions.Add(1)
	sess.publish()
	return sess, nil
}

// CreateGraph creates the spec'd session (see newSession), registers it
// in the pool and starts its goroutine; the session's first edit batch
// is already warm.
func (s *Server) CreateGraph(ctx context.Context, spec GraphSpec) (GraphInfo, error) {
	sess, err := s.newSession(ctx, spec)
	if err != nil {
		return GraphInfo{}, err
	}
	// Read before the session is reachable: once registered, its
	// goroutine owns the graph.
	info := GraphInfo{
		ID:       sess.id,
		Vertices: sess.g.NumVertices(),
		Edges:    sess.g.NumEdges(),
		P:        sess.a.P,
		Version:  1,
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		sess.eng.Close()
		return GraphInfo{}, ErrServerClosed
	}
	s.sessions[sess.id] = sess
	s.mu.Unlock()
	s.metrics.graphs.Add(1)
	go sess.run()
	return info, nil
}

// Session looks up a live session by graph id.
func (s *Server) Session(id string) (*Session, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, ErrServerClosed
	}
	sess, ok := s.sessions[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoGraph, id)
	}
	return sess, nil
}

// Submit sends one edit request to graph id's session and waits for its
// batch's repartition (or a shed). The context carries the request
// deadline: it is checked while the request queues, and the batch's
// repartition runs under the merged deadline of its requests, so an
// expiry before or during the solve sheds with the typed ErrDeadline
// while the session (and its assignment) stays healthy.
//
// Admission is two-staged and non-blocking: the server-wide in-flight
// cap sheds with ErrOverloaded, the session's bounded queue with
// ErrQueueFull. A caller that stops waiting (ctx done) gets ErrDeadline
// immediately; its request is still answered internally, releasing the
// in-flight slot when the session reaches it.
func (s *Server) Submit(ctx context.Context, id string, edits []Edit) (*Response, error) {
	sess, err := s.Session(id)
	if err != nil {
		return nil, err
	}
	select {
	case s.inflight <- struct{}{}:
	default:
		s.metrics.shedOverload.Add(1)
		return nil, ErrOverloaded
	}
	r := &request{ctx: ctx, edits: edits, resp: make(chan result, 1), enq: time.Now()}
	if err := sess.enqueue(r); err != nil {
		s.release()
		if errors.Is(err, ErrQueueFull) {
			s.metrics.shedQueueFull.Add(1)
		}
		return nil, err
	}
	s.metrics.admitted.Add(1)
	select {
	case res := <-r.resp:
		return res.resp, res.err
	case <-ctx.Done():
		return nil, fmt.Errorf("%w: %v", ErrDeadline, context.Cause(ctx))
	}
}

// release frees one global in-flight slot.
func (s *Server) release() { <-s.inflight }

// remove unregisters a session (called by the session's own shutdown).
func (s *Server) remove(id string) {
	s.mu.Lock()
	delete(s.sessions, id)
	s.mu.Unlock()
}

// DropGraph evicts graph id's session: queued requests are answered
// with ErrSessionClosed and the engine is closed. It returns once the
// session has fully shut down.
func (s *Server) DropGraph(id string) error {
	sess, err := s.Session(id)
	if err != nil {
		return err
	}
	sess.signalStop()
	<-sess.done
	return nil
}

// Close shuts the server down: every session drains (in-flight batches
// finish, queued requests answer ErrSessionClosed) and closes its
// engine. Close returns once all session goroutines have exited; it is
// idempotent.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	sessions := make([]*Session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	s.mu.Unlock()
	for _, sess := range sessions {
		sess.signalStop()
	}
	for _, sess := range sessions {
		<-sess.done
	}
}

// Metrics returns a snapshot of the server-wide counters and latency
// quantiles.
func (s *Server) Metrics() MetricsSnapshot {
	s.mu.RLock()
	n := len(s.sessions)
	s.mu.RUnlock()
	return s.metrics.snapshot(n)
}
