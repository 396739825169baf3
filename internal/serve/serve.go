// Package serve is the concurrent query-serving layer over loaded engines
// (DESIGN.md §11): the piece that turns the paper's one-query-at-a-time
// benchmark into a system that can take traffic. There is one request path,
// the Router's:
//
//   - admission compiles the plan (engine.Params.Validate runs at compile
//     time), so malformed requests are rejected at the door instead of
//     inside a kernel, and refuses a query no member supports;
//   - repeated hot queries are answered from a result cache keyed by
//     (answer class, plan fingerprint, snapshot epoch) — the "millions of
//     users" traffic shape, where most requests are the same few
//     dashboards. The fingerprint covers exactly the parameters the
//     compiled plan reads, so two Params differing only in fields
//     irrelevant to the query (a Q4 request with a different MaxAge, say)
//     share one entry. Cold-cache twins are coalesced single-flight: a
//     stampede of identical queries executes once, and the rest read the
//     leader's result;
//   - a miss is admitted to the gate of the cheapest supporting member, a
//     Server: at most MaxConcurrent queries at a time (a semaphore), so a
//     burst of clients queues instead of oversubscribing the host, with the
//     parallel-kernel worker budget split across the slots, so N in-flight
//     queries at W total workers run ~W/N kernel workers each instead of
//     N·W goroutines fighting for the same cores.
//
// A Server serves its one engine through a one-member Router; a fleet is a
// Router over many Servers.
//
// The engine must obey the engine.Engine concurrency contract: loaded state
// read-only during Run, per-query scratch only. The single-node engines
// have since the contract was written, and the multinode virtual-cluster
// engines do since the distributed plan layer gave each query its own
// virtual cluster (DESIGN.md §13) — so a cluster configuration serves
// traffic exactly like a single-node one.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/genbase/genbase/internal/engine"
	"github.com/genbase/genbase/internal/parallel"
	"github.com/genbase/genbase/internal/plan"
)

// DefaultMaxConcurrent is the admission width when Options leaves it zero.
const DefaultMaxConcurrent = 4

// DefaultBreakerThreshold is the number of consecutive engine failures that
// opens a Server's circuit breaker.
const DefaultBreakerThreshold = 5

// breakerProbeEvery is the half-open policy: while the circuit is open,
// every breakerProbeEvery-th rejected request is let through as a probe; one
// probe success closes the circuit. Count-based, so breaker behavior is
// deterministic per request sequence (no recovery timers).
const breakerProbeEvery = 8

// Runner is what a load driver issues requests against: a single-engine
// Server or the fleet Router. Run's bool reports a cache hit; Stats
// snapshots the admission-layer counters; Name labels the served system.
type Runner interface {
	Name() string
	Run(ctx context.Context, q engine.QueryID, p engine.Params) (*engine.Result, bool, error)
	Stats() Stats
}

// WorkerSetter is implemented by engines whose analytics-kernel worker count
// can be pinned (all single-node engines). Server uses it to divide the
// host's worker budget across admission slots before serving starts.
type WorkerSetter interface {
	SetWorkers(n int)
}

// Options configures a Server.
type Options struct {
	// MaxConcurrent is the number of admission slots (default
	// DefaultMaxConcurrent). Queries beyond it wait for a slot, or for the
	// caller's context to end.
	MaxConcurrent int
	// WorkerBudget is the total kernel-worker budget split across slots
	// (default parallel.Default(), i.e. GENBASE_PARALLEL or NumCPU). Each
	// admitted query runs with max(1, WorkerBudget/MaxConcurrent) workers.
	WorkerBudget int
	// DisableCache is read by nothing. A Server always caches through its
	// one-member Router, and a fleet member's cache goes unused because the
	// fleet Router admits to its gate directly; the field is kept because the
	// benchmark harness still sets it on fleet members.
	DisableCache bool
}

// served pairs the engine generation a request executes on with its snapshot
// epoch. The pair is immutable once published; Swap installs a new one.
type served struct {
	eng   engine.Engine
	epoch uint64
}

// Server is one loaded engine's admission gate, and the one-member Router
// in front of it that its own Run and Stats go through. The gate holds the
// admission slots, the circuit breaker, the per-slot worker share and the
// pinned (engine, epoch) pair; a fleet Router admits its requests to the
// same gate.
//
// Under ingest (DESIGN.md §18) the served engine advances by whole snapshot
// epochs: Swap atomically installs the engine loaded from the next
// checkpointed snapshot. Every request pins the (engine, epoch) pair at
// admission and its answer is cached under that epoch, so in-flight queries
// and cached results stay a pure function of their pinned snapshot —
// old-epoch entries keep serving old-epoch keys until they age out FIFO,
// rather than being evicted on write.
type Server struct {
	cur        atomic.Pointer[served]
	system     string
	slots      chan struct{}
	perWorkers int // per-slot kernel-worker share, re-applied on Swap
	breaker    breaker
	front      *Router // the one-member Router that Run and Stats go through

	inflight       atomic.Int64
	peak           atomic.Int64
	admitted       atomic.Int64
	breakerDenials atomic.Int64 // rejected: circuit open
	engineFailures atomic.Int64 // engine Run errors (non-client)
}

// breaker is a count-based circuit breaker: DefaultBreakerThreshold
// consecutive engine failures open it, a successful half-open probe closes
// it. All transitions are functions of the request/outcome sequence — no
// clocks — so drills replay exactly.
type breaker struct {
	mu          sync.Mutex
	consecutive int // consecutive engine failures
	open        bool
	rejects     int // rejections since the circuit opened
}

// allow reports whether a request may reach the engine, counting rejections
// while open and letting every breakerProbeEvery-th attempt through as a
// half-open probe.
func (b *breaker) allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.open {
		return true
	}
	b.rejects++
	return b.rejects%breakerProbeEvery == 0
}

func (b *breaker) onSuccess() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.consecutive = 0
	b.open = false
	b.rejects = 0
}

func (b *breaker) onFailure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.consecutive++
	if b.consecutive >= DefaultBreakerThreshold {
		b.open = true
		b.rejects = 0
	}
}

func (b *breaker) isOpen() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.open
}

// New wraps a loaded engine in an admission gate and a caching one-member
// Router over it. It pins the engine's worker count to the per-slot share
// of the budget, so it must be called before concurrent queries begin
// (SetWorkers is not synchronized — by contract it happens while the
// engine is idle).
func New(eng engine.Engine, opts Options) *Server {
	maxc := opts.MaxConcurrent
	if maxc <= 0 {
		maxc = DefaultMaxConcurrent
	}
	budget := parallel.Resolve(opts.WorkerBudget)
	per := budget / maxc
	if per < 1 {
		per = 1
	}
	if ws, ok := eng.(WorkerSetter); ok {
		ws.SetWorkers(per)
	}
	s := &Server{
		system:     eng.Name(),
		slots:      make(chan struct{}, maxc),
		perWorkers: per,
	}
	s.cur.Store(&served{eng: eng, epoch: 0})
	// One member is never ranked or listed in shares, so this Router needs
	// no cost model and its member no cost identity; its answer class is
	// the system.
	s.front = &Router{backends: []*routerBackend{{srv: s, class: s.system}}, cache: newCache(0)}
	return s
}

// compiledPlan is a compiled plan together with its fingerprint, which is
// built once at compile time rather than per request.
type compiledPlan struct {
	plan *plan.Plan
	fp   string
}

// planKey is one exact parameterization. engine.Params is a flat comparable
// struct, so the exact-repeat hot path (the traffic shape the cache serves)
// skips plan compilation entirely.
type planKey struct {
	q engine.QueryID
	p engine.Params
}

// maxMemoizedPlans bounds a planMemo; at the bound the map resets (the
// workload is a small set of hot parameterizations, so eviction finesse
// buys nothing).
const maxMemoizedPlans = 4096

// planMemo memoizes compiled plans per exact parameterization: the Router
// ranks by the plan's operators and keys its cache by the fingerprint. The
// zero value is ready to use.
type planMemo struct {
	mu sync.Mutex
	m  map[planKey]compiledPlan
}

// get returns the compiled plan for (q, p), compiling (and therefore
// validating) on first sight and answering repeats from the memo.
func (pm *planMemo) get(q engine.QueryID, p engine.Params) (compiledPlan, error) {
	k := planKey{q, p}
	pm.mu.Lock()
	c, ok := pm.m[k]
	pm.mu.Unlock()
	if ok {
		return c, nil
	}
	pl, err := plan.Compile(q, p)
	if err != nil {
		return compiledPlan{}, err
	}
	c = compiledPlan{pl, pl.Fingerprint()}
	pm.mu.Lock()
	if pm.m == nil || len(pm.m) >= maxMemoizedPlans {
		pm.m = make(map[planKey]compiledPlan)
	}
	pm.m[k] = c
	pm.mu.Unlock()
	return c, nil
}

// Engine returns the currently served engine generation.
func (s *Server) Engine() engine.Engine { return s.cur.Load().eng }

// Epoch returns the snapshot epoch of the currently served engine.
func (s *Server) Epoch() uint64 { return s.cur.Load().epoch }

// Swap atomically installs an engine loaded from snapshot epoch and returns
// the previously served engine, which the caller must keep alive (not Close)
// until requests pinned to it drain. Swap pins the new engine's kernel-worker
// count to the same per-slot share New computed, and requires the new engine
// to serve the same system (epoch advances change data, never identity) —
// cached answers for older epochs remain valid under their epoch-carrying
// keys.
func (s *Server) Swap(eng engine.Engine, epoch uint64) engine.Engine {
	if eng.Name() != s.system {
		panic(fmt.Sprintf("serve: swap of %q into a %q server", eng.Name(), s.system))
	}
	if ws, ok := eng.(WorkerSetter); ok {
		ws.SetWorkers(s.perWorkers)
	}
	old := s.cur.Swap(&served{eng: eng, epoch: epoch})
	return old.eng
}

// Name identifies the served system (the wrapped engine's name).
func (s *Server) Name() string { return s.system }

// Run executes one query through the Server's one-member Router (see
// Router.Run), blocking for an admission slot when the gate is at width. The
// bool reports whether the result came from the cache (or a coalesced
// twin's execution). Cached results are shared between callers: the Answer
// must be treated as immutable (every engine already builds answers from
// fresh allocations and nothing downstream mutates them).
func (s *Server) Run(ctx context.Context, q engine.QueryID, p engine.Params) (*engine.Result, bool, error) {
	return s.front.Run(ctx, q, p)
}

// Stats returns the one-member Router's counters: this gate's, and the
// Router's own cache and shedding counters.
func (s *Server) Stats() Stats { return s.front.Stats() }

// execute admits one request through the gate — the circuit breaker, then
// an admission slot, waited for until the caller's context ends — and runs
// it on the (engine, epoch) pair pinned at admission. It returns that epoch,
// under which the caller may cache the answer even if Swap lands
// mid-flight.
func (s *Server) execute(ctx context.Context, q engine.QueryID, p engine.Params) (*engine.Result, uint64, error) {
	if !s.breaker.allow() {
		s.breakerDenials.Add(1)
		return nil, 0, fmt.Errorf("serve: circuit open for %s: %w", s.system, engine.ErrOverload)
	}
	select {
	case s.slots <- struct{}{}: // a free slot wins even over an ended context
	default:
		select {
		case s.slots <- struct{}{}:
		case <-ctx.Done():
			return nil, 0, ctx.Err()
		}
	}
	defer func() {
		s.inflight.Add(-1)
		<-s.slots
	}()
	cur := s.inflight.Add(1)
	for {
		old := s.peak.Load()
		if cur <= old || s.peak.CompareAndSwap(old, cur) {
			break
		}
	}
	s.admitted.Add(1)
	pin := s.cur.Load()
	res, err := pin.eng.Run(ctx, q, p)
	s.noteOutcome(ctx, err)
	if err != nil {
		return nil, 0, err
	}
	return res, pin.epoch, nil
}

// noteOutcome feeds an engine result into the circuit breaker and failure
// stats. Client-side rejections, and a failure of a request whose own
// context has ended (the caller cancelled it or its deadline passed), say
// nothing about the engine's health, so they neither trip nor reset the
// breaker.
func (s *Server) noteOutcome(ctx context.Context, err error) {
	if err == nil {
		s.breaker.onSuccess()
		return
	}
	if ctx.Err() != nil || errors.Is(err, engine.ErrBadParams) ||
		errors.Is(err, engine.ErrUnsupported) || errors.Is(err, engine.ErrOverload) {
		return
	}
	s.engineFailures.Add(1)
	s.breaker.onFailure()
}

// gateStats returns the gate's own counters; a Router adds them up over its
// members.
func (s *Server) gateStats() Stats {
	return Stats{
		Admitted:       s.admitted.Load(),
		InFlight:       s.inflight.Load(),
		PeakInFlight:   s.peak.Load(),
		BreakerDenials: s.breakerDenials.Load(),
		EngineFailures: s.engineFailures.Load(),
		BreakerOpen:    s.breaker.isOpen(),
	}
}

// Stats is a snapshot of a Runner's counters. The gate counters (Admitted,
// InFlight, PeakInFlight, BreakerDenials, EngineFailures, BreakerOpen) are
// added up over a Router's members; the rest are the Router's own.
type Stats struct {
	// Admitted is the number of queries that executed on an engine (cache
	// hits are not admitted).
	Admitted int64
	// InFlight is the current number of executing queries.
	InFlight int64
	// PeakInFlight is the highest member's high-water mark of concurrent
	// executing queries; it can never exceed that member's MaxConcurrent.
	PeakInFlight int64
	// CacheHits / CacheMisses are the Router's result-cache counters (zero
	// in a BackendShare, which carries only its gate's counters).
	CacheHits, CacheMisses int64
	// Coalesced counts requests answered by a twin's execution: they missed
	// the cache, waited on an identical in-flight query, and found its
	// answer published (each also counts once in CacheHits).
	Coalesced int64

	// Shed counts requests every candidate member turned away (each of
	// them had its circuit open), BreakerDenials the members' individual
	// refusals — both typed engine.ErrOverload at the caller.
	Shed, BreakerDenials int64
	// Deadlined counts requests failed with engine.ErrDeadlineExceeded.
	Deadlined int64
	// EngineFailures counts engine Run errors other than client-side
	// rejections and cancellations (the outcomes that feed the breaker).
	EngineFailures int64
	// Degraded counts completions whose run survived injected faults
	// (failover, retry, or hedge fired; the answer is still bit-identical).
	Degraded int64
	// BreakerOpen reports whether any member's circuit is currently open.
	BreakerOpen bool
}

// Key identifies one cacheable query execution: the answer class (a lone
// Server's class is its system), the compiled plan's fingerprint, and the snapshot epoch the answer was computed
// against. The fingerprint canonicalizes the computation (operators plus the
// parameters they actually read), so parameterizations that differ only in
// fields the query ignores map to the same entry; the epoch keeps answers
// from different snapshots apart without any eviction — ingest advances the
// epoch and old entries simply stop being asked for.
type Key struct {
	System      string
	Fingerprint string
	Epoch       uint64
}

// DefaultCacheEntries bounds a cache created with size 0.
const DefaultCacheEntries = 256

// cache is a Router's bounded result cache. Entries evict FIFO — the workload
// this serves (a small set of hot dashboard queries hit by many clients) has
// no use for fancier policies, and FIFO keeps eviction deterministic.
type cache struct {
	mu      sync.Mutex
	entries map[Key]*engine.Result
	order   []Key // insertion order for FIFO eviction
	max     int

	hits, misses atomic.Int64
}

// newCache creates a cache holding at most max results (0 means
// DefaultCacheEntries).
func newCache(max int) *cache {
	if max <= 0 {
		max = DefaultCacheEntries
	}
	return &cache{entries: make(map[Key]*engine.Result, max), max: max}
}

// Len returns the number of cached results.
func (c *cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

func (c *cache) get(k Key) (*engine.Result, bool) {
	c.mu.Lock()
	res, ok := c.entries[k]
	c.mu.Unlock()
	if ok {
		c.hits.Add(1)
		return res, true
	}
	c.misses.Add(1)
	return nil, false
}

// peek is get without recording a miss (a found entry still counts as a
// hit). Router.run probes every answer class after the best-ranked one with
// it, so one routed request records at most one miss.
func (c *cache) peek(k Key) (*engine.Result, bool) {
	c.mu.Lock()
	res, ok := c.entries[k]
	c.mu.Unlock()
	if ok {
		c.hits.Add(1)
		return res, true
	}
	return nil, false
}

func (c *cache) put(k Key, res *engine.Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[k]; ok {
		return // an earlier put won (two flights can publish one key)
	}
	if len(c.entries) >= c.max {
		oldest := c.order[0]
		c.order = c.order[1:]
		delete(c.entries, oldest)
	}
	c.entries[k] = res
	c.order = append(c.order, k)
}
