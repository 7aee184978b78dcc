// Package comm is the message-passing substrate standing in for the
// paper's 32-node CM-5 and its CMMD library. Ranks are goroutines; point
// to point messages travel over per-pair FIFO channels, each made when
// its pair first communicates, so a world's memory follows the pairs its
// algorithms use rather than P²; the collectives the SPMD pipeline uses
// (broadcast, sum all-reduce, argmin, all-gather) are built from
// point-to-point messages with binomial-tree algorithms.
//
// Every rank carries a simulated clock. Compute is charged explicitly
// (Advance), communication is charged by a LogP-style cost model
// (per-message latency, per-byte time, per-message CPU overhead), and a
// message cannot be received before the sender's clock at send time plus
// its transfer cost. The maximum clock over ranks after a run is the
// simulated parallel makespan — the number the benchmark harness reports
// as the paper's "Time-p" column. Goroutines execute the algorithms for
// real, so results are actual computations, not estimates; only the
// *timing* is modeled.
package comm

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// ErrAborted is what a blocked Recv returns once another rank of the same
// World.Run has returned an error: the run is failing, and a rank waiting
// for a message its failed peer will never send must not wait forever.
var ErrAborted = errors.New("comm: run aborted by another rank")

// CostModel is a LogP-style machine model.
type CostModel struct {
	// Latency is the end-to-end per-message network latency (α).
	Latency time.Duration
	// PerByte is the inverse bandwidth (β).
	PerByte time.Duration
	// Overhead is the CPU time a rank spends on each send or receive (o).
	Overhead time.Duration
	// FlopTime converts Advance work units (≈ scalar operations) into
	// simulated time.
	FlopTime time.Duration
}

// CM5 returns constants approximating a 1993-era CM-5 running CMMD:
// ~50 µs effective message latency, ~8 MB/s point-to-point bandwidth and
// ~10 µs CPU overhead per message sit inside the range CMMD measurements
// of the period report (86 µs blocking round trips, faster one-way
// active-message paths).
//
// FlopTime is deliberately NOT peak SPARC flops: it is calibrated so that
// the simulated one-node time of the incremental partitioner on the
// paper's small mesh (|V| ≈ 1100, P = 32) lands near the paper's measured
// ~15 s. The paper's per-operation cost was dominated by dense-simplex
// array sweeps and DIME bookkeeping, not peak arithmetic; ~2 µs per work
// unit reproduces that regime, which is what the speedup shape depends on
// (the compute:communication ratio, not absolute throughput).
func CM5() CostModel {
	return CostModel{
		Latency:  50 * time.Microsecond,
		PerByte:  125 * time.Nanosecond,
		Overhead: 10 * time.Microsecond,
		FlopTime: 2 * time.Microsecond,
	}
}

// message is an in-flight point-to-point message.
type message struct {
	tag     int
	data    any
	arrival time.Duration // earliest simulated receive completion start
}

// World is a P-rank machine.
type World struct {
	p     int
	model CostModel
	mu    sync.Mutex
	mail  map[[2]int]chan message // [from, to] → mailbox, made on first use
	clock []time.Duration         // per-rank simulated clocks (owned by the rank)
	msgs  []int64                 // per-rank messages sent
	bytes []int64                 // per-rank bytes sent
	abort chan struct{}           // closed when a rank of the current Run fails
}

// NewWorld builds a machine with p ranks.
func NewWorld(p int, model CostModel) (*World, error) {
	if p < 1 {
		return nil, fmt.Errorf("comm: world size %d", p)
	}
	w := &World{
		p:     p,
		model: model,
		mail:  make(map[[2]int]chan message),
		clock: make([]time.Duration, p),
		msgs:  make([]int64, p),
		bytes: make([]int64, p),
	}
	return w, nil
}

// mailbox returns the from→to channel, making it on first use.
func (w *World) mailbox(from, to int) chan message {
	w.mu.Lock()
	defer w.mu.Unlock()
	k := [2]int{from, to}
	ch, ok := w.mail[k]
	if !ok {
		ch = make(chan message, 4096)
		w.mail[k] = ch
	}
	return ch
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.p }

// Run executes fn on every rank concurrently and waits for all to finish.
// The first rank to return an error aborts the run: every Recv blocked
// then, or issued later, returns ErrAborted, so ranks that diverged (one
// saw a cancellation its peers had not yet seen) all come home. Run
// reports the lowest-ranked error that is not ErrAborted — the cause, not
// its echoes. Clocks accumulate across calls; use Reset to clear them.
func (w *World) Run(fn func(c *Comm) error) error {
	errs := make([]error, w.p)
	w.abort = make(chan struct{})
	var once sync.Once
	var wg sync.WaitGroup
	for r := 0; r < w.p; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			c := &Comm{w: w, rank: rank}
			if errs[rank] = fn(c); errs[rank] != nil {
				once.Do(func() { close(w.abort) })
			}
		}(r)
	}
	wg.Wait()
	var first error
	for r, err := range errs {
		if err == nil {
			continue
		}
		err = fmt.Errorf("comm: rank %d: %w", r, err)
		if first == nil || errors.Is(first, ErrAborted) && !errors.Is(err, ErrAborted) {
			first = err
		}
	}
	return first
}

// Reset clears clocks and counters and drains stray messages.
func (w *World) Reset() {
	for i := range w.clock {
		w.clock[i] = 0
		w.msgs[i] = 0
		w.bytes[i] = 0
	}
	for _, ch := range w.mail {
		for len(ch) > 0 {
			<-ch
		}
	}
}

// MaxClock returns the simulated makespan: the maximum rank clock.
func (w *World) MaxClock() time.Duration {
	var m time.Duration
	for _, c := range w.clock {
		if c > m {
			m = c
		}
	}
	return m
}

// TotalMessages returns the number of point-to-point messages sent.
func (w *World) TotalMessages() int64 {
	var n int64
	for _, m := range w.msgs {
		n += m
	}
	return n
}

// TotalBytes returns the number of payload bytes sent.
func (w *World) TotalBytes() int64 {
	var n int64
	for _, b := range w.bytes {
		n += b
	}
	return n
}

// Comm is one rank's endpoint, valid only inside World.Run.
type Comm struct {
	w    *World
	rank int
	// pending holds messages received out of tag order, per source.
	pending [][]message
}

// Rank returns this rank's id in [0, Size).
func (c *Comm) Rank() int { return c.rank }

// Size returns the world size.
func (c *Comm) Size() int { return c.w.p }

// Clock returns this rank's simulated clock.
func (c *Comm) Clock() time.Duration { return c.w.clock[c.rank] }

// Advance charges flops work units of local compute to the clock.
func (c *Comm) Advance(flops float64) {
	c.w.clock[c.rank] += time.Duration(flops * float64(c.w.model.FlopTime))
}

// AdvanceTime charges raw simulated time to the clock.
func (c *Comm) AdvanceTime(d time.Duration) { c.w.clock[c.rank] += d }

// Send transmits data (with the given payload size in bytes, which drives
// the cost model) to rank `to` with a tag. Sends are buffered and
// non-blocking up to a large channel capacity.
func (c *Comm) Send(to, tag int, data any, nbytes int) error {
	if to < 0 || to >= c.w.p {
		return fmt.Errorf("comm: send to rank %d of %d", to, c.w.p)
	}
	if to == c.rank {
		return fmt.Errorf("comm: self-send on rank %d", c.rank)
	}
	m := c.w.model
	clock := &c.w.clock[c.rank]
	*clock += m.Overhead
	arrival := *clock + m.Latency + time.Duration(nbytes)*m.PerByte
	c.w.msgs[c.rank]++
	c.w.bytes[c.rank] += int64(nbytes)
	select {
	case c.w.mailbox(c.rank, to) <- message{tag: tag, data: data, arrival: arrival}:
		return nil
	default:
		return fmt.Errorf("comm: mailbox %d→%d full", c.rank, to)
	}
}

// Recv blocks until a message with the given tag arrives from rank
// `from`, advances the clock to its arrival, and returns its payload. It
// returns ErrAborted instead once another rank of the run has failed.
func (c *Comm) Recv(from, tag int) (any, error) {
	if from < 0 || from >= c.w.p {
		return nil, fmt.Errorf("comm: recv from rank %d of %d", from, c.w.p)
	}
	if from == c.rank {
		return nil, fmt.Errorf("comm: self-recv on rank %d", c.rank)
	}
	if c.pending == nil {
		c.pending = make([][]message, c.w.p)
	}
	// Check messages already pulled off the channel.
	for i, m := range c.pending[from] {
		if m.tag == tag {
			c.pending[from] = append(c.pending[from][:i], c.pending[from][i+1:]...)
			c.deliver(m)
			return m.data, nil
		}
	}
	mail := c.w.mailbox(from, c.rank)
	for {
		var m message
		select {
		case m = <-mail:
		case <-c.w.abort:
			return nil, ErrAborted
		}
		if m.tag == tag {
			c.deliver(m)
			return m.data, nil
		}
		c.pending[from] = append(c.pending[from], m)
	}
}

// deliver advances the receiver clock for message m.
func (c *Comm) deliver(m message) {
	clock := &c.w.clock[c.rank]
	if m.arrival > *clock {
		*clock = m.arrival
	}
	*clock += c.w.model.Overhead
}
