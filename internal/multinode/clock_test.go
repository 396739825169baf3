package multinode

import (
	"context"
	"errors"
	"testing"
	"time"

	"github.com/genbase/genbase/internal/engine"
	"github.com/genbase/genbase/internal/xeonphi"
)

// Every exec and every kernel reads the cluster's clock, so under the
// stepping clock a query's virtual timing is a pure function of the plan:
// two runs of the same query agree to the nanosecond on every kind,
// including the coordinator kernels of Q3 and Q5 and the Phi offloads.
func TestVirtualTimingRepeatsBitForBit(t *testing.T) {
	ds := testDataset()
	p := engine.DefaultParams()
	p.SVDK = 5
	ctx := context.Background()
	for _, kind := range AllKinds() {
		e := New(kind, 2)
		e.now = steppingClock(time.Millisecond)
		if err := e.Load(ds); err != nil {
			t.Fatal(err)
		}
		for _, q := range engine.AllScenarios() {
			var timings [2]engine.Timing
			for i := range timings {
				res, err := e.Run(ctx, q, p)
				if err != nil {
					t.Fatalf("%v %v: %v", kind, q, err)
				}
				timings[i] = res.Timing
			}
			if timings[0] != timings[1] || timings[0].Total() <= 0 {
				t.Errorf("%v@2n %v: timings %+v then %+v, want one positive timing twice", kind, q, timings[0], timings[1])
			}
		}
	}
}

// execKernel times a kernel once, however short, on the cluster's clock: a
// sub-millisecond kernel is neither re-run nor sampled twice, and under the
// stepping clock it costs one tick on the host, or that tick offloaded.
func TestExecKernelRunsOnce(t *testing.T) {
	const tick = time.Millisecond
	compute, transfer := xeonphi.Offload(xeonphi.KindGEMM, tick.Seconds(), 1<<10, 1<<10)
	for kind, want := range map[Kind]float64{SciDB: tick.Seconds(), SciDBPhi: compute + transfer} {
		e := New(kind, 2)
		e.now = steppingClock(tick)
		x := e.newExec()
		calls := 0
		if err := x.execKernel(1, xeonphi.KindGEMM, 1<<10, 1<<10, func() error {
			calls++
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if calls != 1 {
			t.Errorf("%v: kernel ran %d times, want 1", kind, calls)
		}
		if got := x.c.MakespanSeconds(); got != want {
			t.Errorf("%v: charged %v, want %v", kind, got, want)
		}
	}
}

// A kernel's error reaches the caller and charges nothing.
func TestExecKernelErrorPropagates(t *testing.T) {
	boom := errors.New("boom")
	for _, kind := range []Kind{SciDB, SciDBPhi} {
		e := New(kind, 2)
		e.now = steppingClock(time.Millisecond)
		x := e.newExec()
		if err := x.execKernel(0, xeonphi.KindRank, 0, 0, func() error { return boom }); !errors.Is(err, boom) {
			t.Errorf("%v: err=%v, want boom", kind, err)
		}
		if got := x.c.MakespanSeconds(); got != 0 {
			t.Errorf("%v: a failed kernel charged %v", kind, got)
		}
	}
}

// A cancelled request stops before any offloaded kernel runs.
func TestPhiKernelsHonorCancel(t *testing.T) {
	e := New(SciDBPhi, 2)
	e.now = steppingClock(time.Millisecond)
	if err := e.Load(testDataset()); err != nil {
		t.Fatal(err)
	}
	x := e.newExec()
	d, err := x.Pivot(context.Background(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for name, run := range map[string]func() error{
		"covariance": func() error { _, err := x.RunCovariance(ctx, nil, d); return err },
		"svd":        func() error { _, err := x.RunSVD(ctx, nil, d, 3, 1); return err },
		"bicluster":  func() error { _, err := x.RunBicluster(ctx, nil, d, 2, 1); return err },
	} {
		if err := run(); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err=%v, want context.Canceled", name, err)
		}
	}
}
