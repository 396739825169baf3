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

func TestMRSchedulerPhaseAttribution(t *testing.T) {
	c := New(DefaultConfig(2))
	s := &MRScheduler{C: c}
	s.ResetAccounting()
	ctx := context.Background()
	if err := s.RunWave(ctx, "hive-join:map", 2, func(int) error {
		time.Sleep(2 * time.Millisecond)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.RunWave(ctx, "mahout-gram:map", 2, func(int) error {
		time.Sleep(2 * time.Millisecond)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if s.DMSeconds <= 0 || s.AnalyticsSeconds <= 0 {
		t.Fatalf("attribution missing: dm=%v analytics=%v", s.DMSeconds, s.AnalyticsSeconds)
	}
	total := c.MakespanSeconds()
	if diff := s.DMSeconds + s.AnalyticsSeconds - total; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("phases (%v) don't sum to makespan (%v)", s.DMSeconds+s.AnalyticsSeconds, total)
	}
}

func TestMRSchedulerShuffleChargesNetwork(t *testing.T) {
	c := New(DefaultConfig(2))
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
	if c.MakespanSeconds() <= 0 {
		t.Fatal("shuffle should advance virtual time")
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

func TestMRSchedulerResetAccounting(t *testing.T) {
	c := New(DefaultConfig(1))
	s := &MRScheduler{C: c}
	s.RunWave(context.Background(), "mahout-x:map", 1, func(int) error {
		time.Sleep(time.Millisecond)
		return nil
	})
	s.ResetAccounting()
	if s.DMSeconds != 0 || s.AnalyticsSeconds != 0 {
		t.Fatal("reset incomplete")
	}
}
