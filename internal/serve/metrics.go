package serve

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// RequestMetrics is the per-request observability record returned with
// every served edit submission. It is built on the session goroutine
// from scalars of the engine's Stats (copied before the next engine
// call, so nothing here aliases the engine's arenas) plus the batching
// layer's own counters — the flat, JSON-ready shape a latency dashboard
// wants.
type RequestMetrics struct {
	// QueueWait is the time the request spent behind the previous batch:
	// from its admission to the moment the session goroutine, done with
	// whatever repartition was running, started the request's own batch.
	// Nothing else is waited for, so on an idle session it is the
	// goroutine wake-up, microseconds.
	QueueWait time.Duration `json:"queue_wait_ns"`
	// BatchSize is the number of requests coalesced into the single
	// warm repartition that answered this one.
	BatchSize int `json:"batch_size"`
	// BatchEdits is the number of edits the coalesced batch applied.
	BatchEdits int `json:"batch_edits"`
	// Repartition is the engine wall clock of the batch's repartition.
	Repartition time.Duration `json:"repartition_ns"`
	// Per-phase breakdown of the repartition (Stats.PhaseTimings).
	Assign  time.Duration `json:"assign_ns"`
	Layer   time.Duration `json:"layer_ns"`
	Balance time.Duration `json:"balance_ns"`
	Refine  time.Duration `json:"refine_ns"`
	// Stages, LPIterations, NewAssigned and Moved summarize the
	// pipeline's work; CSRPatched, CutIncremental and CutReused report the
	// delta shortcuts taken (see igp.Stats).
	Stages         int `json:"stages"`
	LPIterations   int `json:"lp_iterations"`
	NewAssigned    int `json:"new_assigned"`
	Moved          int `json:"moved"`
	CSRPatched     int `json:"csr_patched"`
	CutIncremental int `json:"cut_incremental"`
	CutReused      int `json:"cut_reused"`
	// Events is the number of observer events the engine streamed
	// during the batch's repartition (phase spans, ε stages, refinement
	// rounds) — the WithObserver feed rolled up per request.
	Events int `json:"events"`
	// CutAfter is the total cut weight after the repartition.
	CutAfter float64 `json:"cut_after"`
}

// latencyRing keeps the most recent request latencies for quantile
// reports: a fixed-capacity ring so /metrics stays O(1) memory no
// matter how long the server lives.
type latencyRing struct {
	mu   sync.Mutex
	buf  []time.Duration
	next int
	full bool
}

const latencyRingCap = 8192

func (r *latencyRing) observe(d time.Duration) {
	r.mu.Lock()
	if r.buf == nil {
		r.buf = make([]time.Duration, latencyRingCap)
	}
	r.buf[r.next] = d
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
	r.mu.Unlock()
}

// quantiles returns the p50/p90/p99 of the retained window (zeros when
// empty).
func (r *latencyRing) quantiles() (p50, p90, p99 time.Duration) {
	r.mu.Lock()
	n := r.next
	if r.full {
		n = len(r.buf)
	}
	window := append([]time.Duration(nil), r.buf[:n]...)
	r.mu.Unlock()
	if len(window) == 0 {
		return 0, 0, 0
	}
	sort.Slice(window, func(i, j int) bool { return window[i] < window[j] })
	at := func(q float64) time.Duration {
		i := int(q * float64(len(window)-1))
		return window[i]
	}
	return at(0.50), at(0.90), at(0.99)
}

// serverMetrics is the server-wide counter set. Everything is atomic:
// session goroutines and HTTP handlers bump counters without sharing
// locks with the serving path.
type serverMetrics struct {
	graphs        atomic.Int64
	admitted      atomic.Int64
	served        atomic.Int64
	failed        atomic.Int64
	shedQueueFull atomic.Int64
	shedOverload  atomic.Int64
	shedDeadline  atomic.Int64
	repartitions  atomic.Int64
	coalesced     atomic.Int64
	editsApplied  atomic.Int64
	maxBatch      atomic.Int64
	latency       latencyRing
	// GET /assignment replies written, and how many of them had to
	// encode their snapshot's body first.
	assignmentReads atomic.Int64
	snapshotEncodes atomic.Int64
}

func (m *serverMetrics) observeBatch(size int) {
	m.repartitions.Add(1)
	if size > 1 {
		m.coalesced.Add(1)
	}
	for {
		cur := m.maxBatch.Load()
		if int64(size) <= cur || m.maxBatch.CompareAndSwap(cur, int64(size)) {
			return
		}
	}
}

// MetricsSnapshot is the /metrics view: a consistent-enough copy of the
// server-wide counters plus latency quantiles over the recent window.
type MetricsSnapshot struct {
	GraphsCreated  int64 `json:"graphs_created"`
	SessionsActive int   `json:"sessions_active"`
	// Admission outcomes. Admitted = requests that entered a session
	// queue; the three shed counters are the typed rejections.
	RequestsAdmitted int64 `json:"requests_admitted"`
	RequestsServed   int64 `json:"requests_served"`
	RequestsFailed   int64 `json:"requests_failed"`
	ShedQueueFull    int64 `json:"shed_queue_full"`
	ShedOverloaded   int64 `json:"shed_overloaded"`
	ShedDeadline     int64 `json:"shed_deadline"`
	// Coalescing evidence: RepartitionsRun counts engine repartitions
	// (including each session's priming call), CoalescedBatches the
	// batches that answered more than one request. RequestsServed runs
	// ahead of RepartitionsRun when requests arrive faster than the
	// engine repartitions.
	RepartitionsRun  int64 `json:"repartitions_run"`
	CoalescedBatches int64 `json:"coalesced_batches"`
	EditsApplied     int64 `json:"edits_applied"`
	MaxBatchSize     int64 `json:"max_batch_size"`
	// End-to-end request latency quantiles (enqueue to response) over
	// the most recent window of served requests.
	LatencyP50 time.Duration `json:"latency_p50_ns"`
	LatencyP90 time.Duration `json:"latency_p90_ns"`
	LatencyP99 time.Duration `json:"latency_p99_ns"`
	// Snapshot reads: AssignmentReads counts GET /assignment replies,
	// SnapshotEncodes the ones that encoded their version's body (the
	// first read of each version read at all); reads per encode is the
	// pre-encoded body's hit ratio.
	AssignmentReads int64 `json:"assignment_reads"`
	SnapshotEncodes int64 `json:"snapshot_encodes"`
}

func (m *serverMetrics) snapshot(sessions int) MetricsSnapshot {
	p50, p90, p99 := m.latency.quantiles()
	return MetricsSnapshot{
		GraphsCreated:    m.graphs.Load(),
		SessionsActive:   sessions,
		RequestsAdmitted: m.admitted.Load(),
		RequestsServed:   m.served.Load(),
		RequestsFailed:   m.failed.Load(),
		ShedQueueFull:    m.shedQueueFull.Load(),
		ShedOverloaded:   m.shedOverload.Load(),
		ShedDeadline:     m.shedDeadline.Load(),
		RepartitionsRun:  m.repartitions.Load(),
		CoalescedBatches: m.coalesced.Load(),
		EditsApplied:     m.editsApplied.Load(),
		MaxBatchSize:     m.maxBatch.Load(),
		LatencyP50:       p50,
		LatencyP90:       p90,
		LatencyP99:       p99,
		AssignmentReads:  m.assignmentReads.Load(),
		SnapshotEncodes:  m.snapshotEncodes.Load(),
	}
}
