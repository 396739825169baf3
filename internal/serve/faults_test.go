package serve

// Fault-tolerance tests for the serving layer (DESIGN.md §14): a caller's
// context deadline interrupting an in-flight query or a wait for a slot,
// both typed engine.ErrDeadlineExceeded, and the count-based circuit
// breaker's open → probe → close cycle.

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"github.com/genbase/genbase/internal/engine"
)

// faultyEngine is a stubEngine whose Run fails while fail is set — the
// controllable unhealthy backend for breaker tests.
type faultyEngine struct {
	stubEngine
	fail atomic.Bool
}

var errEngineDown = errors.New("engine down")

func (f *faultyEngine) Run(ctx context.Context, q engine.QueryID, p engine.Params) (*engine.Result, error) {
	if f.fail.Load() {
		return nil, errEngineDown
	}
	return f.stubEngine.Run(ctx, q, p)
}

// A deadline on the caller's context interrupts a query already executing
// on the engine: Run returns the typed error and frees the slot instead of
// waiting the query out.
func TestFaultServeContextDeadlineInterruptsQuery(t *testing.T) {
	noLeak(t)
	eng := &stubEngine{name: "stub", delay: 10 * time.Second}
	srv := New(eng, Options{MaxConcurrent: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, _, err := srv.Run(ctx, engine.Q1Regression, engine.DefaultParams()); !errors.Is(err, engine.ErrDeadlineExceeded) {
		t.Fatalf("got %v, want ErrDeadlineExceeded", err)
	}
	if got := eng.runs.Load(); got != 0 {
		t.Fatalf("engine completed %d queries; the deadline never interrupted the in-flight one", got)
	}
	st := srv.Stats()
	if st.Admitted != 1 || st.InFlight != 0 || st.Deadlined != 1 {
		t.Fatalf("admitted %d, in flight %d, deadlined %d; want 1, 0, 1", st.Admitted, st.InFlight, st.Deadlined)
	}
}

func TestFaultServeBreakerOpensProbesCloses(t *testing.T) {
	eng := &faultyEngine{stubEngine: stubEngine{name: "stub"}}
	eng.fail.Store(true)
	srv := New(eng, Options{MaxConcurrent: 1})
	p := engine.DefaultParams()
	ctx := context.Background()

	// DefaultBreakerThreshold consecutive engine failures trip the breaker.
	for i := 0; i < DefaultBreakerThreshold; i++ {
		if _, _, err := srv.Run(ctx, engine.Q1Regression, p); !errors.Is(err, errEngineDown) {
			t.Fatalf("failure %d: got %v, want the engine error", i, err)
		}
	}
	if st := srv.Stats(); !st.BreakerOpen || st.EngineFailures != DefaultBreakerThreshold {
		t.Fatalf("after threshold failures: open=%v failures=%d, want open with %d", st.BreakerOpen, st.EngineFailures, DefaultBreakerThreshold)
	}

	// The engine recovers, but the open circuit keeps denying requests with
	// the typed overload error until the deterministic half-open probe (every
	// breakerProbeEvery-th attempt) reaches the engine and succeeds.
	eng.fail.Store(false)
	denials := 0
	closedAfter := -1
	for i := 1; i <= breakerProbeEvery; i++ {
		_, _, err := srv.Run(ctx, engine.Q1Regression, p)
		switch {
		case errors.Is(err, engine.ErrOverload):
			denials++
		case err == nil:
			closedAfter = i
		default:
			t.Fatalf("attempt %d: %v", i, err)
		}
	}
	if closedAfter != breakerProbeEvery {
		t.Fatalf("probe succeeded at attempt %d, want exactly attempt %d", closedAfter, breakerProbeEvery)
	}
	if denials != breakerProbeEvery-1 {
		t.Fatalf("%d denials before the probe, want %d", denials, breakerProbeEvery-1)
	}
	st := srv.Stats()
	if st.BreakerOpen {
		t.Fatal("breaker still open after a successful probe")
	}
	// The Server's one-member Router sheds every denial: its only
	// candidate turned the request away.
	if st.BreakerDenials != int64(breakerProbeEvery-1) || st.Shed != st.BreakerDenials {
		t.Fatalf("BreakerDenials = %d, Shed = %d, want %d each", st.BreakerDenials, st.Shed, breakerProbeEvery-1)
	}
	// Closed again: requests flow normally. The probe's answer is cached, so
	// the next request changes a parameter Q1 reads to reach the engine.
	next := p
	next.FunctionThreshold++
	if _, hit, err := srv.Run(ctx, engine.Q1Regression, next); err != nil || hit {
		t.Fatalf("after close: hit=%v err=%v, want an executed answer", hit, err)
	}
}

// A request waiting for the only admission slot gives up when its caller's
// deadline passes: it fails typed, is never admitted, and the request
// holding the slot finishes normally.
func TestFaultServeDeadlineWhileQueued(t *testing.T) {
	noLeak(t)
	eng := &stubEngine{name: "stub", started: make(chan struct{}), hold: make(chan struct{})}
	srv := New(eng, Options{MaxConcurrent: 1})
	p := engine.DefaultParams()

	holder := make(chan error, 1)
	go func() {
		_, _, err := srv.Run(context.Background(), engine.Q1Regression, p)
		holder <- err
	}()
	<-eng.started // the holder has the slot and is inside the engine

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	queued := make(chan error, 1)
	go func() {
		_, _, err := srv.Run(ctx, engine.Q2Covariance, p)
		queued <- err
	}()
	select {
	case err := <-queued:
		if !errors.Is(err, engine.ErrDeadlineExceeded) {
			t.Errorf("queued request: got %v, want ErrDeadlineExceeded", err)
		}
	case <-time.After(10 * time.Second):
		t.Error("queued request outlived its deadline waiting for the slot")
	}
	st := srv.Stats()
	if st.Admitted != 1 || st.Deadlined != 1 {
		t.Errorf("admitted %d, deadlined %d; want 1, 1", st.Admitted, st.Deadlined)
	}

	close(eng.hold)
	if err := <-holder; err != nil {
		t.Fatalf("slot holder: %v", err)
	}
	if got := eng.runs.Load(); got != 1 {
		t.Fatalf("engine completed %d queries, want the holder's 1", got)
	}
}
