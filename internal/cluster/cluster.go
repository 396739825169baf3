// Package cluster simulates a multi-node cluster with virtual time. Real
// wall-clock on one host cannot exhibit multi-node speedup; instead, every
// distributed operator executes its real per-partition work (serially on a
// single-core host, concurrently across nodes via ExecAll when the host has
// spare cores) while the simulator charges each measured duration to the
// owning virtual node's clock and charges communication with a
// latency/bandwidth model. Virtual nodes model the paper's one-kernel-at-a-
// time workers, so per-node kernels run with one worker each; host-level
// parallelism comes from running different nodes' work concurrently, which
// shrinks real simulation wall-clock without touching the virtual-time
// calibration. The reported query time is the virtual makespan. This
// preserves exactly what the paper's Figures 3–4 measure:
// per-node compute shrinks as nodes are added, communication and
// synchronization do not, so scaling is sub-linear and redistribution-heavy
// plans can regress (SciDB's 1→2 node slowdown). See DESIGN.md §3.3.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/genbase/genbase/internal/engine"
)

// Injector is the fault-injection hook consulted by Exec (DESIGN.md §14). An
// implementation must be a pure function of (node, step) — no wall clock, no
// unseeded randomness — so a fault schedule is fully replayable and the
// injected behavior is deterministic per query. internal/faults provides the
// standard implementation.
type Injector interface {
	// BeforeExec is consulted before a node runs its step-th execution (a
	// 0-based per-node counter). Return nil to proceed. An error wrapping
	// engine.ErrNodeFailed crashes the node (fail-stop: this and every later
	// exec on the node fails without running). An error wrapping
	// engine.ErrTransient fails only this attempt; the cluster retries it in
	// place with virtual backoff.
	BeforeExec(node, step int) error
	// SlowFactor scales the node's measured compute durations (1 = healthy).
	// Factors at or above the hedge threshold mark the node a straggler.
	SlowFactor(node int) float64
}

// The interconnect calibration: gigabit Ethernet's 125 MB/s per link and a
// 100 µs per-message latency, the class of network the paper's 2013-era
// 4-node cluster used (DESIGN.md §3.3). Send charges every message at these
// rates; no configuration varies them.
const (
	linkLatencySec = 100e-6
	linkBandwidth  = 125e6 // bytes per second
)

// Fault-recovery costs (virtual seconds). All recovery costs are charged to
// the virtual clocks so fault drills show up in the reported makespans.
const (
	// DefaultMaxRetries bounds in-place retries of a transient exec fault.
	DefaultMaxRetries = 2
	// DefaultRetryBackoffSec is the base virtual backoff charged per retry
	// (doubled each attempt).
	DefaultRetryBackoffSec = 1e-3
	// DefaultFailoverDetectSec is the virtual detection delay charged when a
	// shard fails over to a replica (the heartbeat/timeout a real cluster
	// pays before re-dispatching).
	DefaultFailoverDetectSec = 5e-3
	// DefaultHedgeFactor is the slow-factor threshold at which a node counts
	// as a straggler and its shards are hedged onto replicas.
	DefaultHedgeFactor = 4
	// DefaultHedgeOverheadSec is the virtual cost charged to the straggler
	// for its cancelled speculative attempt when a hedge wins.
	DefaultHedgeOverheadSec = 1e-3
)

// Config describes the simulated cluster.
type Config struct {
	// Nodes is the cluster size (the paper uses 1, 2, 4).
	Nodes int

	// Injector injects deterministic faults into Exec (nil = fault-free).
	Injector Injector
	// ReplicationFactor is the number of nodes holding a copy of each shard
	// (clamped to [1, Nodes]; default 1 = no replication). The shard
	// scheduler in internal/distlinalg reads it to place replicas and to
	// fail shard work over when an owner dies.
	ReplicationFactor int
	// ExecTimeoutSec, when positive, fail-stops a node whose single exec's
	// virtual duration exceeds it — the per-node timeout that turns an
	// extreme straggler into a crash the scheduler can fail over.
	ExecTimeoutSec float64

	// Now is the clock that times each exec's compute (nil = time.Now).
	// Tests install a stepping clock so an exec costs a fixed tick and a
	// makespan is an exact function of placement and bytes sent; with one
	// installed RunNodes takes its serial path, since readings of a shared
	// stepping clock only mean that when execs do not interleave.
	Now func() time.Time
}

// DefaultConfig returns a fault-free, unreplicated cluster of the given
// size timed by the wall clock.
func DefaultConfig(nodes int) Config { return Config{Nodes: nodes} }

// Cluster tracks one virtual clock per node.
type Cluster struct {
	cfg    Config
	clocks []float64 // virtual seconds
	steps  []int     // per-node exec counters (fault-schedule positions)
	dead   []bool    // fail-stopped nodes

	// Network traffic since Reset.
	MessagesSent int64
	BytesSent    int64

	// Fault-recovery stats (atomic: nodes run concurrently under ExecAll).
	// Retries counts in-place transient retries, Failovers shard re-executions
	// on a replica after an owner death, Hedges speculative re-routes of a
	// straggler's shard. Any non-zero value marks the run degraded.
	Retries   atomic.Int64
	Failovers atomic.Int64
	Hedges    atomic.Int64
}

// New creates a cluster with all clocks at zero.
func New(cfg Config) *Cluster {
	if cfg.Nodes < 1 {
		cfg.Nodes = 1
	}
	if cfg.ReplicationFactor < 1 {
		cfg.ReplicationFactor = 1
	}
	if cfg.ReplicationFactor > cfg.Nodes {
		cfg.ReplicationFactor = cfg.Nodes
	}
	return &Cluster{
		cfg:    cfg,
		clocks: make([]float64, cfg.Nodes),
		steps:  make([]int, cfg.Nodes),
		dead:   make([]bool, cfg.Nodes),
	}
}

// Nodes returns the cluster size.
func (c *Cluster) Nodes() int { return c.cfg.Nodes }

// ReplicationFactor returns the configured shard replication factor
// (clamped to the node count).
func (c *Cluster) ReplicationFactor() int { return c.cfg.ReplicationFactor }

// Reset zeroes all clocks, fault state, and stats (called between queries).
func (c *Cluster) Reset() {
	for i := range c.clocks {
		c.clocks[i] = 0
		c.steps[i] = 0
		c.dead[i] = false
	}
	c.MessagesSent = 0
	c.BytesSent = 0
	c.Retries.Store(0)
	c.Failovers.Store(0)
	c.Hedges.Store(0)
}

// IsDead reports whether a node has fail-stopped. Only the goroutine running
// a node's work writes its slot, and shard routing reads it between waves, so
// the usual ExecAll ownership discipline keeps this race-free.
func (c *Cluster) IsDead(node int) bool {
	c.checkNode(node)
	return c.dead[node]
}

// LiveNodes returns the number of nodes that have not fail-stopped.
func (c *Cluster) LiveNodes() int {
	n := 0
	for _, d := range c.dead {
		if !d {
			n++
		}
	}
	return n
}

// Coordinator returns the lowest-numbered live node — the node that runs
// reductions and answer assembly. When the original coordinator (node 0)
// dies, the role deterministically fails over to the next live node; because
// every reduction combines per-shard partials in shard order, the re-homed
// reduction is bit-for-bit the original (DESIGN.md §14). With every node
// dead it returns 0 (callers fail with ErrNodeFailed on the next Exec).
func (c *Cluster) Coordinator() int {
	for i, d := range c.dead {
		if !d {
			return i
		}
	}
	return 0
}

// NodeSlowFactor returns the injected slow factor for a node (1 when
// fault-free). The shard scheduler consults it to hedge stragglers before
// dispatch — the decision is deterministic because the factor comes from the
// fault plan, not from measured time.
func (c *Cluster) NodeSlowFactor(node int) float64 {
	c.checkNode(node)
	if c.cfg.Injector == nil {
		return 1
	}
	if f := c.cfg.Injector.SlowFactor(node); f > 1 {
		return f
	}
	return 1
}

// HedgeFactor returns the slow-factor threshold at which the shard scheduler
// hedges a node's shards onto replicas.
func (c *Cluster) HedgeFactor() float64 { return DefaultHedgeFactor }

// ChargeFailoverDetect charges the virtual failover detection delay to a
// node and counts the failover.
func (c *Cluster) ChargeFailoverDetect(node int) {
	c.Charge(node, DefaultFailoverDetectSec)
	c.Failovers.Add(1)
}

// ChargeHedge charges the straggler's cancelled speculative attempt and
// counts the hedge. The charge lands on the node the work was re-routed to —
// the straggler may be mid-exec on another goroutine, and the winner's clock
// is the one the recovery cost must not undercut.
func (c *Cluster) ChargeHedge(node int) {
	c.Charge(node, DefaultHedgeOverheadSec)
	c.Hedges.Add(1)
}

// Degraded reports whether any fault-recovery mechanism fired since Reset.
func (c *Cluster) Degraded() bool {
	return c.Retries.Load() > 0 || c.Failovers.Load() > 0 || c.Hedges.Load() > 0
}

// Exec runs fn immediately, measures its real duration, and charges it to
// node's virtual clock (scaled by the node's injected slow factor). Injected
// faults are consulted first: a crashed node executes nothing and returns
// engine.ErrNodeFailed; a transient fault is retried in place up to
// DefaultMaxRetries times with doubling virtual backoff before it escapes.
func (c *Cluster) Exec(node int, fn func() error) error {
	return c.ExecCtx(context.Background(), node, fn)
}

// ExecCtx is Exec honoring a context: a cancelled or expired context fails
// the exec before fn runs (fn itself is synchronous compute and is not
// interrupted mid-flight; callers check the context at operator boundaries).
func (c *Cluster) ExecCtx(ctx context.Context, node int, fn func() error) error {
	c.checkNode(node)
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if c.dead[node] {
			return fmt.Errorf("node %d: %w", node, engine.ErrNodeFailed)
		}
		if inj := c.cfg.Injector; inj != nil {
			step := c.steps[node]
			c.steps[node]++
			if err := inj.BeforeExec(node, step); err != nil {
				if errors.Is(err, engine.ErrNodeFailed) {
					c.dead[node] = true
					return fmt.Errorf("node %d step %d: %w", node, step, err)
				}
				if errors.Is(err, engine.ErrTransient) && attempt < DefaultMaxRetries {
					// Retry in place: charge the doubling virtual backoff so
					// the recovery shows up in the makespan.
					c.clocks[node] += DefaultRetryBackoffSec * float64(int64(1)<<attempt)
					c.Retries.Add(1)
					continue
				}
				return fmt.Errorf("node %d step %d: %w", node, step, err)
			}
		}
		start := c.now()
		err := fn()
		d := c.now().Sub(start).Seconds() * c.NodeSlowFactor(node)
		c.clocks[node] += d
		if err == nil && c.cfg.ExecTimeoutSec > 0 && d > c.cfg.ExecTimeoutSec {
			// The per-node exec timeout: an extreme straggler is declared
			// failed so its shards can re-run on replicas.
			c.dead[node] = true
			return fmt.Errorf("node %d: exec exceeded %.3fs virtual timeout: %w",
				node, c.cfg.ExecTimeoutSec, engine.ErrNodeFailed)
		}
		return err
	}
}

// ExecCoordinator runs fn on the current coordinator (the lowest live node),
// failing the role over down the live nodes if the coordinator dies at this
// very step. With every node dead it returns engine.ErrReplicasExhausted
// wrapping the per-node failures.
func (c *Cluster) ExecCoordinator(fn func() error) error {
	var attempts []error
	for i := 0; i < c.cfg.Nodes; i++ {
		if c.dead[i] {
			continue
		}
		if len(attempts) > 0 {
			// The role moved because the previous coordinator died at this
			// very step: charge the detection delay to its successor.
			c.ChargeFailoverDetect(i)
		}
		err := c.Exec(i, fn)
		if err == nil || !errors.Is(err, engine.ErrNodeFailed) {
			return err
		}
		attempts = append(attempts, err)
	}
	return fmt.Errorf("coordinator: %w", errors.Join(append(attempts, engine.ErrReplicasExhausted)...))
}

// ExecAll runs fn(node) once per node, charging each node's measured
// duration to its own clock. See ExecAllCtx for the scheduling and error
// semantics.
func (c *Cluster) ExecAll(fn func(node int) error) error {
	return c.ExecAllCtx(context.Background(), func(_ context.Context, node int) error {
		return fn(node)
	})
}

// ExecAllCtx runs fn(ctx, node) once per node. When the host has at least
// one CPU per node the closures run concurrently — real clusters run their
// nodes in parallel, and each closure's wall-clock is still measured
// individually — otherwise they run serially in node order: with fewer cores
// than nodes the goroutines would time-share, inflating each measured
// duration with descheduled time and corrupting the virtual clocks. Both
// NumCPU (physical capacity; GOMAXPROCS can be set above it) and GOMAXPROCS
// (the scheduler's actual limit) must cover the node count. Callers must
// make the closures independent (they write disjoint per-node slots), which
// also keeps the results identical on either path.
//
// Error semantics: the first failing node cancels the shared context, so
// in-flight siblings that honor it stop early, and every node error is
// aggregated with errors.Join — no node's failure is silently dropped.
// Sibling cancellations themselves are filtered out of the aggregate when a
// real error is present (and the parent context is still live), so callers
// see causes, not echoes.
func (c *Cluster) ExecAllCtx(ctx context.Context, fn func(ctx context.Context, node int) error) error {
	return c.RunNodes(ctx, func(cctx context.Context, i int) error {
		return c.ExecCtx(cctx, i, func() error { return fn(cctx, i) })
	})
}

// RunNodes applies ExecAll's scheduling policy — concurrent when the host
// has a core per node, serial in node order otherwise — and its error
// semantics (first failure cancels the shared context, all errors joined)
// WITHOUT wrapping each node in Exec. Callers that need per-unit fault and
// timing granularity (the shard scheduler) issue their own Exec calls per
// work item inside fn.
func (c *Cluster) RunNodes(ctx context.Context, fn func(ctx context.Context, node int) error) error {
	n := c.cfg.Nodes
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make([]error, n)
	run := func(i int) {
		errs[i] = fn(cctx, i)
		if errs[i] != nil {
			cancel()
		}
	}
	if n == 1 || c.cfg.Now != nil || runtime.NumCPU() < n || runtime.GOMAXPROCS(0) < n {
		for i := 0; i < n; i++ {
			run(i)
		}
	} else {
		var wg sync.WaitGroup
		wg.Add(n)
		for i := 0; i < n; i++ {
			go func(i int) {
				defer wg.Done()
				run(i)
			}(i)
		}
		wg.Wait()
	}
	return joinNodeErrors(ctx, errs)
}

// joinNodeErrors aggregates per-node errors, dropping pure sibling
// cancellations when a real cause is present and the parent context is live.
func joinNodeErrors(ctx context.Context, errs []error) error {
	real := false
	for _, err := range errs {
		if err != nil && !errors.Is(err, context.Canceled) {
			real = true
			break
		}
	}
	var keep []error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if real && ctx.Err() == nil && errors.Is(err, context.Canceled) {
			continue
		}
		keep = append(keep, err)
	}
	return errors.Join(keep...)
}

// now reads the clock that times compute (Config.Now, else the wall clock).
func (c *Cluster) now() time.Time {
	if c.cfg.Now != nil {
		return c.cfg.Now()
	}
	return time.Now()
}

// Charge adds pre-measured virtual seconds to a node's clock (used by the
// coprocessor model, whose kernels have their own rate).
func (c *Cluster) Charge(node int, seconds float64) {
	c.checkNode(node)
	if seconds > 0 {
		c.clocks[node] += seconds
	}
}

// Send models an asynchronous message of n bytes: the receiver's clock
// advances to no earlier than the send time plus latency plus transmission.
func (c *Cluster) Send(src, dst int, bytes int64) {
	c.checkNode(src)
	c.checkNode(dst)
	if src == dst {
		return
	}
	arrival := c.clocks[src] + linkLatencySec + float64(bytes)/linkBandwidth
	if arrival > c.clocks[dst] {
		c.clocks[dst] = arrival
	}
	c.MessagesSent++
	c.BytesSent += bytes
}

// Barrier synchronizes all nodes: every clock advances to the maximum.
func (c *Cluster) Barrier() {
	max := 0.0
	for _, v := range c.clocks {
		if v > max {
			max = v
		}
	}
	for i := range c.clocks {
		c.clocks[i] = max
	}
}

// Gather models every node sending bytesPerNode to root, then synchronizes
// root to the last arrival.
func (c *Cluster) Gather(root int, bytesPerNode int64) {
	for i := 0; i < c.cfg.Nodes; i++ {
		c.Send(i, root, bytesPerNode)
	}
}

// Broadcast models root sending bytes to every other node.
func (c *Cluster) Broadcast(root int, bytes int64) {
	for i := 0; i < c.cfg.Nodes; i++ {
		c.Send(root, i, bytes)
	}
}

// AllReduce models a reduce-to-root followed by a broadcast, then a barrier
// — the pattern behind every distributed vector sum in pbdR/ScaLAPACK. The
// root is the current coordinator, so the traffic re-homes with the role
// after a coordinator death.
func (c *Cluster) AllReduce(bytesPerNode int64) {
	root := c.Coordinator()
	c.Gather(root, bytesPerNode)
	c.Broadcast(root, bytesPerNode)
	c.Barrier()
}

// AllToAll models a full data exchange where every node sends bytesPerPair
// to every other node — SciDB's chunk redistribution into ScaLAPACK's
// block-cyclic layout.
func (c *Cluster) AllToAll(bytesPerPair int64) {
	for i := 0; i < c.cfg.Nodes; i++ {
		for j := 0; j < c.cfg.Nodes; j++ {
			c.Send(i, j, bytesPerPair)
		}
	}
	c.Barrier()
}

// MakespanSeconds is the maximum virtual clock — the simulated elapsed time.
func (c *Cluster) MakespanSeconds() float64 {
	max := 0.0
	for _, v := range c.clocks {
		if v > max {
			max = v
		}
	}
	return max
}

// Partition splits n items into per-node contiguous ranges: node i owns
// [starts[i], starts[i+1]).
func (c *Cluster) Partition(n int) []int {
	nodes := c.cfg.Nodes
	starts := make([]int, nodes+1)
	per := n / nodes
	rem := n % nodes
	pos := 0
	for i := 0; i < nodes; i++ {
		starts[i] = pos
		pos += per
		if i < rem {
			pos++
		}
	}
	starts[nodes] = n
	return starts
}

func (c *Cluster) checkNode(n int) {
	if n < 0 || n >= c.cfg.Nodes {
		panic(fmt.Sprintf("cluster: node %d out of range [0,%d)", n, c.cfg.Nodes))
	}
}
