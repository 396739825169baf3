package cluster

import (
	"context"
	"testing"
	"time"
)

func TestMRSchedulerSpreadsWaves(t *testing.T) {
	c := New(steppedConfig(4, time.Millisecond))
	s := &MRScheduler{C: c}
	err := s.RunWave(context.Background(), "hive-x:map", 8, func(i int) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	// 8 tasks of one 1-ms tick over 4 nodes → makespan 2ms, not 8ms.
	if ms := c.MakespanSeconds(); ms != 2*time.Millisecond.Seconds() {
		t.Fatalf("makespan %v, want 2ms", ms)
	}
}

func TestMRSchedulerShuffleChargesNetwork(t *testing.T) {
	const tick = time.Millisecond
	c := New(steppedConfig(2, tick))
	s := &MRScheduler{C: c}
	// Pretend a map wave ran so placement is known.
	if err := s.RunWave(context.Background(), "hive-x:map", 2, func(int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	s.ShuffleCost([][]int64{
		{0, 1 << 20}, // mapper 0 (node 0) → reducer 1 (node 1)
		{1 << 20, 0}, // mapper 1 (node 1) → reducer 0 (node 0)
	})
	if c.BytesSent != 2<<20 {
		t.Fatalf("bytes sent %d", c.BytesSent)
	}
	// Mapper 0's MiB reaches node 1 after the one-tick map wave; mapper 1's
	// leaves node 1 after that arrival.
	hop := tick.Seconds() + 100e-6 + (1<<20)/125e6
	if want := hop + 100e-6 + (1<<20)/125e6; c.MakespanSeconds() != want {
		t.Fatalf("makespan %v, want %v", c.MakespanSeconds(), want)
	}
}

func TestMRSchedulerContextCancel(t *testing.T) {
	c := New(DefaultConfig(2))
	s := &MRScheduler{C: c}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.RunWave(ctx, "hive-x:map", 4, func(int) error { return nil }); err == nil {
		t.Fatal("expected cancellation")
	}
}
