package arraydb

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"github.com/genbase/genbase/internal/engine"
	"github.com/genbase/genbase/internal/xeonphi"
)

// runKernel runs a kernel once, however short, on the host and with Phi;
// with Phi the stopwatch books the modeled transfer, which depends on the
// bytes moved alone.
func TestRunKernelRunsOnce(t *testing.T) {
	for _, phi := range []bool{false, true} {
		e := &Engine{Phi: phi}
		var sw engine.StopWatch
		calls := 0
		if err := e.runKernel(context.Background(), &sw, xeonphi.KindGEMM, 1<<20, 1<<10, func() error {
			calls++
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		sw.Stop()
		if calls != 1 {
			t.Errorf("phi=%v: kernel ran %d times, want 1", phi, calls)
		}
		var want time.Duration
		if phi {
			_, transfer := xeonphi.Offload(xeonphi.KindGEMM, 0, 1<<20, 1<<10)
			want = secondsToDuration(transfer)
		}
		if got := sw.Timing().Transfer; got != want {
			t.Errorf("phi=%v: transfer %v, want %v", phi, got, want)
		}
	}
}

// A kernel's error reaches the caller on both paths.
func TestRunKernelErrorPropagates(t *testing.T) {
	boom := errors.New("boom")
	for _, phi := range []bool{false, true} {
		e := &Engine{Phi: phi}
		var sw engine.StopWatch
		if err := e.runKernel(context.Background(), &sw, xeonphi.KindRank, 0, 0, func() error { return boom }); !errors.Is(err, boom) {
			t.Errorf("phi=%v: err=%v, want boom", phi, err)
		}
	}
}

// With Phi a cancelled request stops before the kernel runs.
func TestPhiRunKernelHonorsCancel(t *testing.T) {
	e := &Engine{Phi: true}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var sw engine.StopWatch
	calls := 0
	err := e.runKernel(ctx, &sw, xeonphi.KindRank, 0, 0, func() error { calls++; return nil })
	if !errors.Is(err, context.Canceled) || calls != 0 {
		t.Fatalf("err=%v after %d kernel calls, want context.Canceled and none", err, calls)
	}
}

// Every offloaded query books PCIe transfer and keeps the host answer.
func TestPhiBooksTransfer(t *testing.T) {
	host, phi := New(), &Engine{Phi: true}
	for _, e := range []*Engine{host, phi} {
		if err := e.Load(testDataset()); err != nil {
			t.Fatal(err)
		}
	}
	p := engine.DefaultParams()
	for _, q := range []engine.QueryID{engine.Q2Covariance, engine.Q3Biclustering, engine.Q4SVD, engine.Q5Statistics} {
		want, err := host.Run(context.Background(), q, p)
		if err != nil {
			t.Fatal(err)
		}
		got, err := phi.Run(context.Background(), q, p)
		if err != nil {
			t.Fatal(err)
		}
		if got.Timing.Transfer <= 0 {
			t.Errorf("%v: no transfer booked", q)
		}
		if !reflect.DeepEqual(got.Answer, want.Answer) {
			t.Errorf("%v: offloaded answer differs from the host's", q)
		}
	}
}
