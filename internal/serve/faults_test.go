package serve

// Fault-tolerance tests for the serving layer (DESIGN.md §14): per-request
// deadlines mapping to the typed engine.ErrDeadlineExceeded, queue-depth
// load shedding, the count-based circuit breaker's open → probe → close
// cycle, and a caller's context deadline interrupting an in-flight query.

import (
	"context"
	"errors"
	"sync"
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

func TestFaultServeRequestDeadlineTyped(t *testing.T) {
	noLeak(t)
	eng := &stubEngine{name: "stub", delay: 200 * time.Millisecond}
	srv := New(eng, Options{MaxConcurrent: 1, DisableCache: true, RequestTimeout: 5 * time.Millisecond})
	_, _, err := srv.Run(context.Background(), engine.Q1Regression, engine.DefaultParams())
	if !errors.Is(err, engine.ErrDeadlineExceeded) {
		t.Fatalf("got %v, want ErrDeadlineExceeded", err)
	}
	if st := srv.Stats(); st.Deadlined != 1 {
		t.Fatalf("Deadlined = %d, want 1", st.Deadlined)
	}
}

// A deadline on the caller's context — no RequestTimeout configured —
// interrupts a query already executing on the engine: Run returns the typed
// error and frees the slot instead of waiting the query out.
func TestFaultServeContextDeadlineInterruptsQuery(t *testing.T) {
	noLeak(t)
	eng := &stubEngine{name: "stub", delay: 10 * time.Second}
	srv := New(eng, Options{MaxConcurrent: 1, DisableCache: true})
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

func TestFaultServeQueueDepthSheds(t *testing.T) {
	noLeak(t)
	eng := &stubEngine{name: "stub", delay: time.Second, started: make(chan struct{})}
	srv := New(eng, Options{MaxConcurrent: 1, MaxQueue: 1, DisableCache: true})
	p := engine.DefaultParams()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); srv.Run(ctx, engine.Q1Regression, p) }() // occupies the slot
	<-eng.started
	go func() { defer wg.Done(); srv.Run(ctx, engine.Q2Covariance, p) }() // fills the queue
	for srv.waiting.Load() == 0 {
		time.Sleep(time.Millisecond)
	}

	// Queue at capacity: the next request is shed with the typed overload
	// error instead of queueing without bound.
	_, _, err := srv.Run(ctx, engine.Q5Statistics, p)
	if !errors.Is(err, engine.ErrOverload) {
		t.Fatalf("got %v, want ErrOverload from the full admission queue", err)
	}
	if st := srv.Stats(); st.Shed != 1 {
		t.Fatalf("Shed = %d, want 1", st.Shed)
	}
	cancel() // unwind the occupant and the queued request
	wg.Wait()
}

func TestFaultServeBreakerOpensProbesCloses(t *testing.T) {
	eng := &faultyEngine{stubEngine: stubEngine{name: "stub"}}
	eng.fail.Store(true)
	srv := New(eng, Options{MaxConcurrent: 1, DisableCache: true, BreakerThreshold: 2})
	p := engine.DefaultParams()
	ctx := context.Background()

	// Two consecutive engine failures trip the breaker.
	for i := 0; i < 2; i++ {
		if _, _, err := srv.Run(ctx, engine.Q1Regression, p); !errors.Is(err, errEngineDown) {
			t.Fatalf("failure %d: got %v, want the engine error", i, err)
		}
	}
	if st := srv.Stats(); !st.BreakerOpen || st.EngineFailures != 2 {
		t.Fatalf("after threshold failures: open=%v failures=%d, want open with 2", st.BreakerOpen, st.EngineFailures)
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
	if st.BreakerDenials != int64(breakerProbeEvery-1) {
		t.Fatalf("BreakerDenials = %d, want %d", st.BreakerDenials, breakerProbeEvery-1)
	}
	// Closed again: requests flow normally.
	if _, _, err := srv.Run(ctx, engine.Q1Regression, p); err != nil {
		t.Fatalf("after close: %v", err)
	}
}

func TestFaultServeBreakerDisabled(t *testing.T) {
	eng := &faultyEngine{stubEngine: stubEngine{name: "stub"}}
	eng.fail.Store(true)
	srv := New(eng, Options{MaxConcurrent: 1, DisableCache: true, BreakerThreshold: -1})
	p := engine.DefaultParams()
	for i := 0; i < 2*DefaultBreakerThreshold; i++ {
		if _, _, err := srv.Run(context.Background(), engine.Q1Regression, p); !errors.Is(err, errEngineDown) {
			t.Fatalf("run %d: got %v, want the raw engine error (breaker disabled)", i, err)
		}
	}
	if st := srv.Stats(); st.BreakerOpen || st.BreakerDenials != 0 {
		t.Fatalf("disabled breaker tripped: %+v", st)
	}
}
