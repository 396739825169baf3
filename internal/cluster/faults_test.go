package cluster_test

// Fault-path tests for the virtual cluster (DESIGN.md §14): fail-stop
// crashes, in-place transient retries, the per-exec virtual timeout,
// ExecAllCtx's join-all-errors/cancel-siblings contract, and coordinator
// failover. The external test package lets these use internal/faults as the
// injector, exactly as production callers do.

import (
	"context"
	"errors"
	"testing"
	"time"

	"github.com/genbase/genbase/internal/cluster"
	"github.com/genbase/genbase/internal/engine"
	"github.com/genbase/genbase/internal/faults"
)

func newFaulty(nodes int, p *faults.Plan) *cluster.Cluster {
	cfg := cluster.DefaultConfig(nodes)
	cfg.Injector = p
	return cluster.New(cfg)
}

func TestFaultCrashFailStops(t *testing.T) {
	c := newFaulty(2, faults.New().Crash(0, 1))
	ran := 0
	fn := func() error { ran++; return nil }

	if err := c.Exec(0, fn); err != nil {
		t.Fatalf("step 0 before the crash: %v", err)
	}
	err := c.Exec(0, fn)
	if !errors.Is(err, engine.ErrNodeFailed) {
		t.Fatalf("crash step: got %v, want ErrNodeFailed", err)
	}
	if !c.IsDead(0) {
		t.Fatal("node 0 not marked dead after its crash step")
	}
	// Fail-stop: every later exec fails without running fn.
	if err := c.Exec(0, fn); !errors.Is(err, engine.ErrNodeFailed) {
		t.Fatalf("post-crash exec: got %v, want ErrNodeFailed", err)
	}
	if ran != 1 {
		t.Fatalf("fn ran %d times on the crashed node, want 1", ran)
	}
	// The healthy node is untouched.
	if err := c.Exec(1, fn); err != nil {
		t.Fatalf("healthy node: %v", err)
	}
	if c.LiveNodes() != 1 {
		t.Fatalf("LiveNodes = %d, want 1", c.LiveNodes())
	}
}

func TestFaultTransientRetriedInPlace(t *testing.T) {
	c := newFaulty(1, faults.New().Flaky(0, 0))
	ran := 0
	if err := c.Exec(0, func() error { ran++; return nil }); err != nil {
		t.Fatalf("flaky step not retried: %v", err)
	}
	if ran != 1 {
		t.Fatalf("fn ran %d times, want 1 (the retry after the flaky attempt)", ran)
	}
	if got := c.Retries.Load(); got != 1 {
		t.Fatalf("Retries = %d, want 1", got)
	}
	if !c.Degraded() {
		t.Fatal("a retried run must report Degraded")
	}
	if c.IsDead(0) {
		t.Fatal("transient fault must not fail-stop the node")
	}
}

func TestFaultTransientExhaustsRetries(t *testing.T) {
	// Every step flaky: DefaultMaxRetries in-place attempts, then the typed error
	// escapes to the caller (the shard scheduler fails over to a replica).
	p := faults.New()
	for step := 0; step < 8; step++ {
		p.Flaky(0, step)
	}
	c := newFaulty(1, p)
	err := c.Exec(0, func() error { return nil })
	if !errors.Is(err, engine.ErrTransient) {
		t.Fatalf("got %v, want ErrTransient after retries exhausted", err)
	}
	if got := c.Retries.Load(); got != cluster.DefaultMaxRetries {
		t.Fatalf("Retries = %d, want %d", got, cluster.DefaultMaxRetries)
	}
}

// Recovery is charged at the compiled costs: each in-place retry adds the
// doubling DefaultRetryBackoffSec before the successful attempt's tick.
func TestFaultRetryChargesDoublingBackoff(t *testing.T) {
	const tick = 2 * time.Millisecond
	cfg := cluster.SteppedConfig(1, tick)
	cfg.Injector = faults.New().Flaky(0, 0).Flaky(0, 1)
	c := cluster.New(cfg)
	if err := c.Exec(0, func() error { return nil }); err != nil {
		t.Fatalf("two flaky steps within DefaultMaxRetries: %v", err)
	}
	want := 0.0
	want += cluster.DefaultRetryBackoffSec
	want += 2 * cluster.DefaultRetryBackoffSec
	want += tick.Seconds()
	if got := c.MakespanSeconds(); got != want {
		t.Fatalf("makespan %v, want %v (1x + 2x backoff, then one tick)", got, want)
	}
}

// A shard failover charges DefaultFailoverDetectSec to the re-homing node
// only, and counts once.
func TestFaultFailoverDetectChargesDefault(t *testing.T) {
	c := cluster.New(cluster.DefaultConfig(2))
	c.ChargeFailoverDetect(1)
	if got := c.MakespanSeconds(); got != cluster.DefaultFailoverDetectSec {
		t.Fatalf("makespan %v, want %v", got, cluster.DefaultFailoverDetectSec)
	}
	if got := c.Failovers.Load(); got != 1 {
		t.Fatalf("Failovers = %d, want 1", got)
	}
}

// Every exec costs one 2-ms tick: an exec exactly at the timeout survives,
// the next one past a tighter timeout fail-stops the node, and either way the
// tick is charged.
func TestFaultExecTimeoutFailStops(t *testing.T) {
	const tick = 2 * time.Millisecond
	cfg := cluster.SteppedConfig(1, tick)
	cfg.ExecTimeoutSec = tick.Seconds()
	if err := cluster.New(cfg).Exec(0, func() error { return nil }); err != nil {
		t.Fatalf("exec at exactly the timeout: %v", err)
	}
	cfg = cluster.SteppedConfig(1, tick)
	cfg.ExecTimeoutSec = tick.Seconds() / 2
	c := cluster.New(cfg)
	err := c.Exec(0, func() error { return nil })
	if !errors.Is(err, engine.ErrNodeFailed) {
		t.Fatalf("got %v, want ErrNodeFailed from the exec timeout", err)
	}
	if !c.IsDead(0) {
		t.Fatal("timed-out node not fail-stopped")
	}
	if got := c.MakespanSeconds(); got != tick.Seconds() {
		t.Fatalf("makespan %v, want the one %v tick", got, tick)
	}
}

// RunNodes must aggregate every node's failure with errors.Join — no node's
// error is silently dropped, on either the serial or the concurrent path.
func TestFaultRunNodesJoinsAllErrors(t *testing.T) {
	errA := errors.New("node 1 exploded")
	errB := errors.New("node 2 exploded")
	c := cluster.New(cluster.DefaultConfig(4))
	err := c.RunNodes(context.Background(), func(_ context.Context, node int) error {
		// Deliberately ignore the shared context: both failures must surface
		// even though the first one cancels it.
		switch node {
		case 1:
			return errA
		case 2:
			return errB
		}
		return nil
	})
	if !errors.Is(err, errA) || !errors.Is(err, errB) {
		t.Fatalf("aggregate %v must wrap both node errors", err)
	}
	if errors.Is(err, context.Canceled) {
		t.Fatalf("aggregate %v leaks a sibling cancellation echo", err)
	}
}

// ExecAllCtx's first failure cancels the shared context; siblings that honor it
// stop early instead of running to completion, and their cancellations are
// filtered from the aggregate so callers see the cause, not echoes.
func TestFaultExecAllCancelsSiblings(t *testing.T) {
	boom := errors.New("node 0 exploded")
	timedOut := errors.New("sibling never saw the cancellation")
	c := cluster.New(cluster.DefaultConfig(4))
	err := c.ExecAllCtx(context.Background(), func(ctx context.Context, node int) error {
		if node == 0 {
			return boom
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * time.Second):
			return timedOut
		}
	})
	if !errors.Is(err, boom) {
		t.Fatalf("aggregate %v must wrap the causal error", err)
	}
	if errors.Is(err, timedOut) {
		t.Fatal("a sibling ran to its timeout instead of being cancelled")
	}
	if errors.Is(err, context.Canceled) {
		t.Fatalf("aggregate %v leaks sibling cancellation echoes", err)
	}
}

// When the caller's own context is dead, the cancellation is the cause and
// must surface rather than being filtered as an echo.
func TestFaultExecAllParentCancelSurfaces(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := cluster.New(cluster.DefaultConfig(2))
	err := c.ExecAllCtx(ctx, func(context.Context, int) error { return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled from the dead parent", err)
	}
}

func TestFaultExecCoordinatorFailsOver(t *testing.T) {
	c := newFaulty(3, faults.New().Crash(0, 0))
	ran := 0
	if err := c.ExecCoordinator(func() error { ran++; return nil }); err != nil {
		t.Fatalf("coordinator failover: %v", err)
	}
	if ran != 1 {
		t.Fatalf("fn ran %d times, want 1 (once, on the successor)", ran)
	}
	if got := c.Coordinator(); got != 1 {
		t.Fatalf("Coordinator() = %d after node 0 died, want 1", got)
	}
	if got := c.Failovers.Load(); got != 1 {
		t.Fatalf("Failovers = %d, want 1 (the role move is charged)", got)
	}
}

func TestFaultExecCoordinatorExhausted(t *testing.T) {
	p := faults.New()
	for n := 0; n < 3; n++ {
		p.Crash(n, 0)
	}
	c := newFaulty(3, p)
	err := c.ExecCoordinator(func() error { return nil })
	if !errors.Is(err, engine.ErrReplicasExhausted) {
		t.Fatalf("got %v, want ErrReplicasExhausted with every node dead", err)
	}
	if !errors.Is(err, engine.ErrNodeFailed) {
		t.Fatalf("aggregate %v must keep the per-node crash causes", err)
	}
}

func TestFaultResetClearsFaultState(t *testing.T) {
	c := newFaulty(2, faults.New().Crash(0, 0))
	if err := c.Exec(0, func() error { return nil }); !errors.Is(err, engine.ErrNodeFailed) {
		t.Fatalf("setup crash: %v", err)
	}
	c.Reset()
	if c.IsDead(0) || c.Degraded() {
		t.Fatal("Reset must clear dead nodes and recovery counters")
	}
	// The per-node step counters restart too, so the same plan replays
	// identically on the next query.
	if err := c.Exec(0, func() error { return nil }); !errors.Is(err, engine.ErrNodeFailed) {
		t.Fatalf("replayed crash after Reset: %v", err)
	}
}
