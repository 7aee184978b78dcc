package comm

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func newTestWorld(t *testing.T, p int) *World {
	t.Helper()
	w, err := NewWorld(p, CM5())
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestSendRecvBasic(t *testing.T) {
	w := newTestWorld(t, 2)
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 7, "hello", 5)
		}
		got, err := c.Recv(0, 7)
		if err != nil {
			return err
		}
		if got.(string) != "hello" {
			return fmt.Errorf("got %v", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if w.TotalMessages() != 1 || w.TotalBytes() != 5 {
		t.Fatalf("messages %d bytes %d, want 1/5", w.TotalMessages(), w.TotalBytes())
	}
}

func TestRecvOutOfOrderTags(t *testing.T) {
	w := newTestWorld(t, 2)
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			if err := c.Send(1, 1, "first", 5); err != nil {
				return err
			}
			return c.Send(1, 2, "second", 6)
		}
		// Receive in reverse tag order.
		b, err := c.Recv(0, 2)
		if err != nil {
			return err
		}
		a, err := c.Recv(0, 1)
		if err != nil {
			return err
		}
		if a.(string) != "first" || b.(string) != "second" {
			return fmt.Errorf("got %v %v", a, b)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendErrors(t *testing.T) {
	w := newTestWorld(t, 2)
	err := w.Run(func(c *Comm) error {
		if c.Rank() != 0 {
			return nil
		}
		if err := c.Send(5, 0, nil, 0); err == nil {
			return fmt.Errorf("out-of-range send should fail")
		}
		if err := c.Send(0, 0, nil, 0); err == nil {
			return fmt.Errorf("self-send should fail")
		}
		if _, err := c.Recv(0, 0); err == nil {
			return fmt.Errorf("self-recv should fail")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestClockAdvancesWithMessage(t *testing.T) {
	w := newTestWorld(t, 2)
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			c.AdvanceTime(time.Millisecond) // sender is busy first
			return c.Send(1, 0, nil, 1000)
		}
		_, err := c.Recv(0, 0)
		if err != nil {
			return err
		}
		// Receiver clock ≥ sender busy time + latency + 1000 bytes.
		min := time.Millisecond + CM5().Latency + 1000*CM5().PerByte
		if c.Clock() < min {
			return fmt.Errorf("clock %v < min %v", c.Clock(), min)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBcastFromEveryRoot(t *testing.T) {
	for root := 0; root < 5; root++ {
		w := newTestWorld(t, 5)
		err := w.Run(func(c *Comm) error {
			var data any
			if c.Rank() == root {
				data = fmt.Sprintf("payload-%d", root)
			}
			got, err := c.Bcast(root, data, 10)
			if err != nil {
				return err
			}
			if got.(string) != fmt.Sprintf("payload-%d", root) {
				return fmt.Errorf("rank %d got %v", c.Rank(), got)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("root %d: %v", root, err)
		}
	}
}

func TestAllreduceFloatSum(t *testing.T) {
	w := newTestWorld(t, 7)
	err := w.Run(func(c *Comm) error {
		x := []float64{float64(c.Rank()), 1}
		got, err := c.AllreduceFloat(x, OpSum)
		if err != nil {
			return err
		}
		if got[0] != 21 || got[1] != 7 { // 0+..+6 = 21
			return fmt.Errorf("rank %d got %v", c.Rank(), got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllreduceMaxMin(t *testing.T) {
	w := newTestWorld(t, 6)
	err := w.Run(func(c *Comm) error {
		x := []float64{float64(c.Rank())}
		mx, err := c.AllreduceFloat(x, OpMax)
		if err != nil {
			return err
		}
		mn, err := c.AllreduceFloat(x, OpMin)
		if err != nil {
			return err
		}
		if mx[0] != 5 || mn[0] != 0 {
			return fmt.Errorf("max %v min %v", mx, mn)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllgather(t *testing.T) {
	w := newTestWorld(t, 6)
	err := w.Run(func(c *Comm) error {
		got, err := c.Allgather(c.Rank()+100, 8)
		if err != nil {
			return err
		}
		for r := 0; r < 6; r++ {
			if got[r].(int) != r+100 {
				return fmt.Errorf("rank %d: allgather[%d] = %v", c.Rank(), r, got[r])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestResetClearsState(t *testing.T) {
	w := newTestWorld(t, 2)
	_ = w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 0, nil, 100)
		}
		_, err := c.Recv(0, 0)
		return err
	})
	if w.MaxClock() == 0 {
		t.Fatal("clock should have advanced")
	}
	w.Reset()
	if w.MaxClock() != 0 || w.TotalMessages() != 0 || w.TotalBytes() != 0 {
		t.Fatal("reset did not clear counters")
	}
}

func TestRunPropagatesErrors(t *testing.T) {
	w := newTestWorld(t, 3)
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 1 {
			return fmt.Errorf("boom")
		}
		return nil
	})
	if err == nil {
		t.Fatal("error should propagate")
	}
}

// TestRunAbortsBlockedRecv: rank 0 fails while rank 1 waits for a message
// rank 0 will never send. Rank 1's Recv must return ErrAborted instead of
// blocking forever, and Run must report rank 0's error, not the echo.
func TestRunAbortsBlockedRecv(t *testing.T) {
	w := newTestWorld(t, 2)
	boom := errors.New("boom")
	var waited error
	done := make(chan error, 1)
	go func() {
		done <- w.Run(func(c *Comm) error {
			if c.Rank() == 0 {
				// Makes "rank 1 already blocked" the likely interleaving;
				// a Recv issued after the abort must fail the same way.
				time.Sleep(10 * time.Millisecond)
				return boom
			}
			_, waited = c.Recv(0, 3)
			return waited
		})
	}()
	select {
	case err := <-done:
		if !errors.Is(err, boom) || errors.Is(err, ErrAborted) {
			t.Fatalf("Run returned %v, want rank 0's error", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run hung on a rank blocked in Recv")
	}
	if !errors.Is(waited, ErrAborted) {
		t.Fatalf("blocked Recv returned %v, want ErrAborted", waited)
	}
	// The world stays usable: the next Run starts unaborted.
	w.Reset()
	if err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 3, nil, 0)
		}
		_, err := c.Recv(0, 3)
		return err
	}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyAllreduceMatchesSequential(t *testing.T) {
	f := func(seed int64) bool {
		p := 2 + int(uint64(seed)%6)
		vals := make([]float64, p)
		for i := range vals {
			seed = seed*6364136223846793005 + 1442695040888963407
			vals[i] = float64(seed % 1000)
		}
		var want float64
		for _, v := range vals {
			want += v
		}
		w, err := NewWorld(p, CostModel{})
		if err != nil {
			return false
		}
		var bad atomic.Bool
		err = w.Run(func(c *Comm) error {
			got, err := c.AllreduceFloat([]float64{vals[c.Rank()]}, OpSum)
			if err != nil {
				return err
			}
			if got[0] != want {
				bad.Store(true)
			}
			return nil
		})
		return err == nil && !bad.Load()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestCollectivesSingleRank(t *testing.T) {
	w := newTestWorld(t, 1)
	err := w.Run(func(c *Comm) error {
		if got, err := c.Bcast(0, "x", 1); err != nil || got.(string) != "x" {
			return fmt.Errorf("bcast: %v %v", got, err)
		}
		if got, err := c.AllreduceFloat([]float64{3}, OpSum); err != nil || got[0] != 3 {
			return fmt.Errorf("allreduce: %v %v", got, err)
		}
		if v, i, err := c.ArgminIndexed(6, 9); err != nil || v != 6 || i != 9 {
			return fmt.Errorf("argminindexed: %v %v %v", v, i, err)
		}
		if got, err := c.Allgather("me", 2); err != nil || len(got) != 1 || got[0].(string) != "me" {
			return fmt.Errorf("allgather: %v %v", got, err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// No messages should flow on a single-rank world.
	if w.TotalMessages() != 0 {
		t.Fatalf("messages = %d, want 0", w.TotalMessages())
	}
}

func TestArgminIndexedTieBreaksOnIndex(t *testing.T) {
	w := newTestWorld(t, 4)
	err := w.Run(func(c *Comm) error {
		// All ranks hold the same value with different indices; the
		// smallest index must win everywhere.
		idx := []int{30, 10, 20, 40}[c.Rank()]
		v, i, err := c.ArgminIndexed(7, idx)
		if err != nil {
			return err
		}
		if v != 7 || i != 10 {
			return fmt.Errorf("got (%v,%d), want (7,10)", v, i)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWorldSizeValidation(t *testing.T) {
	if _, err := NewWorld(0, CM5()); err == nil {
		t.Fatal("0-rank world must error")
	}
}

func TestStressRandomPatterns(t *testing.T) {
	// Randomized matched send/recv patterns must complete without
	// deadlock: every rank sends to a pseudo-random subset each round and
	// receives exactly what the symmetric schedule predicts.
	const p = 6
	const rounds = 25
	w := newTestWorld(t, p)
	err := w.Run(func(c *Comm) error {
		for r := 0; r < rounds; r++ {
			// Deterministic schedule both sides can compute.
			for d := 1; d < p; d++ {
				if (r+d)%3 == 0 {
					to := (c.Rank() + d) % p
					if err := c.Send(to, r, c.Rank()*1000+r, 8); err != nil {
						return err
					}
				}
			}
			for d := 1; d < p; d++ {
				if (r+d)%3 == 0 {
					from := (c.Rank() - d + p) % p
					got, err := c.Recv(from, r)
					if err != nil {
						return err
					}
					if got.(int) != from*1000+r {
						return fmt.Errorf("round %d from %d: got %v", r, from, got)
					}
				}
			}
			if r%7 == 0 { // a collective between rounds shares the mailboxes
				if _, err := c.AllreduceFloat([]float64{float64(r)}, OpMax); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
