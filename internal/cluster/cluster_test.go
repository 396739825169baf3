package cluster

import (
	"slices"
	"testing"
	"testing/quick"
	"time"
)

// steppingClock is a Config.Now that advances one tick per reading, so every
// exec is measured as exactly one tick.
func steppingClock(tick time.Duration) func() time.Time {
	now := time.Unix(0, 0)
	return func() time.Time {
		now = now.Add(tick)
		return now
	}
}

func steppedConfig(nodes int, tick time.Duration) Config {
	cfg := DefaultConfig(nodes)
	cfg.Now = steppingClock(tick)
	return cfg
}

// With an injected clock every exec costs one tick, and ExecAll runs its
// nodes serially so the readings do not interleave.
func TestInjectedClockChargesExactTicks(t *testing.T) {
	const tick = 10 * time.Millisecond
	c := New(steppedConfig(4, tick))
	for i := 0; i < 3; i++ {
		if err := c.Exec(1, func() error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.ExecAll(func(int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	per := tick.Seconds()
	want := []float64{per, per + per + per + per, per, per}
	if !slices.Equal(c.clocks, want) {
		t.Fatalf("clocks=%v want %v", c.clocks, want)
	}
}

func TestExecChargesOwningNode(t *testing.T) {
	const tick = 2 * time.Millisecond
	c := New(steppedConfig(2, tick))
	if err := c.Exec(0, func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	if c.clocks[0] != tick.Seconds() || c.clocks[1] != 0 {
		t.Fatalf("clocks=%v", c.clocks)
	}
}

func TestParallelWaveMakespanIsMax(t *testing.T) {
	c := New(DefaultConfig(4))
	for i := 0; i < 4; i++ {
		c.Charge(i, float64(i+1))
	}
	c.Barrier()
	if c.MakespanSeconds() != 4 {
		t.Fatalf("makespan=%v", c.MakespanSeconds())
	}
	// After the barrier every clock equals the max.
	for _, v := range c.clocks {
		if v != 4 {
			t.Fatalf("clocks=%v", c.clocks)
		}
	}
}

// Send charges the gigabit-Ethernet calibration: 100 µs of latency plus the
// bytes at 125 MB/s.
func TestSendAdvancesReceiver(t *testing.T) {
	c := New(DefaultConfig(2))
	sent := 1.0
	c.Charge(0, sent)
	c.Send(0, 1, 500)
	if want := sent + 100e-6 + 500/125e6; c.clocks[1] != want {
		t.Fatalf("receiver clock %v want %v", c.clocks[1], want)
	}
	// Sender unaffected (async send).
	if c.clocks[0] != 1.0 {
		t.Fatalf("sender clock %v", c.clocks[0])
	}
}

func TestSendToSelfFree(t *testing.T) {
	c := New(DefaultConfig(2))
	c.Send(0, 0, 1<<30)
	if c.MakespanSeconds() != 0 || c.MessagesSent != 0 {
		t.Fatal("self-send must be free")
	}
}

func TestSendNeverRewindsReceiver(t *testing.T) {
	c := New(DefaultConfig(2))
	c.Charge(1, 10)
	c.Send(0, 1, 8)
	if c.clocks[1] != 10 {
		t.Fatal("receiver clock must not rewind")
	}
}

// Property: makespan is monotone — no operation decreases it.
func TestMakespanMonotone(t *testing.T) {
	f := func(ops []uint8) bool {
		c := New(DefaultConfig(3))
		prev := 0.0
		for _, op := range ops {
			switch op % 5 {
			case 0:
				c.Charge(int(op)%3, float64(op%7)*0.001)
			case 1:
				c.Send(int(op)%3, int(op/2)%3, int64(op)*100)
			case 2:
				c.Barrier()
			case 3:
				c.AllReduce(int64(op) * 10)
			case 4:
				c.AllToAll(int64(op) * 10)
			}
			now := c.MakespanSeconds()
			if now < prev {
				return false
			}
			prev = now
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestAllReduceSynchronizes(t *testing.T) {
	c := New(DefaultConfig(3))
	c.Charge(2, 5)
	c.AllReduce(1024)
	for _, v := range c.clocks {
		if v < 5 {
			t.Fatalf("clocks=%v", c.clocks)
		}
	}
	if c.MessagesSent == 0 {
		t.Fatal("allreduce should send messages")
	}
}

func TestPartitionCoversAll(t *testing.T) {
	f := func(n uint16, nodes uint8) bool {
		c := New(DefaultConfig(int(nodes%7) + 1))
		starts := c.Partition(int(n))
		if starts[0] != 0 || starts[len(starts)-1] != int(n) {
			return false
		}
		for i := 1; i < len(starts); i++ {
			if starts[i] < starts[i-1] {
				return false
			}
			// Balanced within one item.
			if int(n) >= c.Nodes() {
				size := starts[i] - starts[i-1]
				if size < int(n)/c.Nodes() || size > int(n)/c.Nodes()+1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestResetClearsState(t *testing.T) {
	c := New(DefaultConfig(2))
	c.Charge(0, 3)
	c.Send(0, 1, 100)
	c.Reset()
	if c.MakespanSeconds() != 0 || c.MessagesSent != 0 || c.BytesSent != 0 {
		t.Fatal("reset incomplete")
	}
}

func TestMoreNodesShrinkComputeMakespan(t *testing.T) {
	// A fixed amount of divisible work should take less virtual time on more
	// nodes — the core property behind Figure 3.
	work := func(nodes int) float64 {
		c := New(DefaultConfig(nodes))
		total := 80
		starts := c.Partition(total)
		for i := 0; i < nodes; i++ {
			units := starts[i+1] - starts[i]
			c.Charge(i, float64(units)*0.01)
		}
		c.Barrier()
		return c.MakespanSeconds()
	}
	t1, t2, t4 := work(1), work(2), work(4)
	if !(t4 < t2 && t2 < t1) {
		t.Fatalf("scaling broken: %v %v %v", t1, t2, t4)
	}
}
