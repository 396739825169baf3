// Package serve is the concurrent query-serving layer over a loaded engine
// (DESIGN.md §11): the piece that turns the paper's one-query-at-a-time
// benchmark into a system that can take traffic. A Server wraps one loaded
// engine.Engine and
//
//   - admits at most MaxConcurrent queries at a time (a semaphore), so a
//     burst of clients queues instead of oversubscribing the host;
//   - splits the parallel-kernel worker budget across the admission slots,
//     so N in-flight queries at W total workers run ~W/N kernel workers
//     each instead of N·W goroutines fighting for the same cores;
//   - answers repeated hot queries from a shared result cache keyed by
//     (engine, plan fingerprint) — the "millions of users" traffic shape,
//     where most requests are the same few dashboards. The fingerprint
//     covers exactly the parameters the compiled plan reads, so two Params
//     differing only in fields irrelevant to the query (a Q4 request with a
//     different MaxAge, say) coalesce onto one entry. Cold-cache twins are
//     coalesced single-flight: a stampede of identical queries executes
//     once, and the rest read the leader's result.
//
// Admission validates parameters by compiling the plan (engine.Params
// .Validate runs at compile time), so malformed requests are rejected at the
// door instead of inside a kernel.
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
	"time"

	"github.com/genbase/genbase/internal/engine"
	"github.com/genbase/genbase/internal/parallel"
	"github.com/genbase/genbase/internal/plan"
)

// DefaultMaxConcurrent is the admission width when Options leaves it zero.
const DefaultMaxConcurrent = 4

// DefaultBreakerThreshold is the number of consecutive engine failures that
// opens the circuit breaker when Options leaves it zero.
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
	// DefaultMaxConcurrent). Queries beyond it block until a slot frees.
	MaxConcurrent int
	// WorkerBudget is the total kernel-worker budget split across slots
	// (default parallel.Default(), i.e. GENBASE_PARALLEL or NumCPU). Each
	// admitted query runs with max(1, WorkerBudget/MaxConcurrent) workers.
	WorkerBudget int
	// Cache shares a result cache across servers (e.g. one per engine over
	// the same dataset). Nil creates a private cache unless DisableCache.
	Cache *Cache
	// DisableCache turns result caching off (every query executes).
	DisableCache bool

	// RequestTimeout is the per-request deadline applied to every Run (0 =
	// none). A request that exceeds it — queueing included — fails with a
	// typed engine.ErrDeadlineExceeded.
	RequestTimeout time.Duration
	// MaxQueue bounds the requests allowed to wait for an admission slot
	// (0 = unbounded). At the bound, further requests are shed immediately
	// with a typed engine.ErrOverload instead of growing the queue — the
	// load-shedding that keeps tail latency bounded under overload.
	MaxQueue int
	// BreakerThreshold is the number of consecutive engine failures that
	// opens this server's circuit breaker (default DefaultBreakerThreshold;
	// negative disables the breaker). While open, requests fail fast with
	// engine.ErrOverload; every breakerProbeEvery-th attempt runs as a
	// half-open probe and one success closes the circuit. Client-side
	// rejections (bad params, unsupported queries, shed load) never trip it.
	BreakerThreshold int
}

// served pairs the engine generation a request executes on with its snapshot
// epoch. The pair is immutable once published; Swap installs a new one.
type served struct {
	eng   engine.Engine
	epoch uint64
}

// Server admits concurrent read-only queries over one loaded engine.
//
// Under ingest (DESIGN.md §18) the served engine advances by whole snapshot
// epochs: Swap atomically installs the engine loaded from the next
// checkpointed snapshot. Every request pins the (engine, epoch) pair at
// admission and carries the epoch in its cache key, so in-flight queries and
// cached results stay a pure function of their pinned snapshot — old-epoch
// entries keep serving old-epoch keys until they age out FIFO, rather than
// being evicted on write.
type Server struct {
	cur        atomic.Pointer[served]
	system     string
	slots      chan struct{}
	perWorkers int    // per-slot kernel-worker share, re-applied on Swap
	cache      *Cache // nil when caching is disabled

	// flights coalesces cold-cache twins (single-flight, see flight.go).
	flights flights

	// plans memoizes (query, params) → plan fingerprint; distinct Params
	// that compile to the same fingerprint still coalesce in the result
	// cache.
	plans planMemo

	inflight atomic.Int64
	peak     atomic.Int64
	admitted atomic.Int64

	// Fault-tolerance serving state (DESIGN.md §14).
	timeout  time.Duration
	maxQueue int
	breaker  *breaker
	waiting  atomic.Int64 // requests blocked on the admission semaphore

	shed           atomic.Int64 // rejected: admission queue full
	breakerDenials atomic.Int64 // rejected: circuit open
	deadlined      atomic.Int64 // failed: request deadline exceeded
	engineFailures atomic.Int64 // engine Run errors (non-client)
	degraded       atomic.Int64 // completions that survived injected faults
}

// breaker is a count-based circuit breaker: consecutive engine failures open
// it, a successful half-open probe closes it. All transitions are functions
// of the request/outcome sequence — no clocks — so drills replay exactly.
type breaker struct {
	mu          sync.Mutex
	threshold   int
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
	if b.consecutive >= b.threshold {
		b.open = true
		b.rejects = 0
	}
}

func (b *breaker) isOpen() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.open
}

// New wraps a loaded engine. It pins the engine's worker count to the
// per-slot share of the budget, so it must be called before concurrent
// queries begin (SetWorkers is not synchronized — by contract it happens
// while the engine is idle).
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
	cache := opts.Cache
	if cache == nil && !opts.DisableCache {
		cache = NewCache(0)
	}
	if opts.DisableCache {
		cache = nil
	}
	s := &Server{
		system:     eng.Name(),
		slots:      make(chan struct{}, maxc),
		perWorkers: per,
		cache:      cache,
		timeout:    opts.RequestTimeout,
		maxQueue:   opts.MaxQueue,
	}
	s.cur.Store(&served{eng: eng, epoch: 0})
	if opts.BreakerThreshold >= 0 {
		threshold := opts.BreakerThreshold
		if threshold == 0 {
			threshold = DefaultBreakerThreshold
		}
		s.breaker = &breaker{threshold: threshold}
	}
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

// planMemo memoizes compiled plans per exact parameterization, for the
// Server (which needs the fingerprint) and the Router (which also ranks by
// the plan's operators). The zero value is ready to use.
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

// MaxConcurrent returns the admission width.
func (s *Server) MaxConcurrent() int { return cap(s.slots) }

// Run executes one query, blocking for an admission slot when the server is
// at width. The bool reports whether the result came from the cache (or a
// coalesced twin's execution). Cached results are shared between callers:
// the Answer must be treated as immutable (every engine already builds
// answers from fresh allocations and nothing downstream mutates them).
//
// Admission outcomes are typed for errors.Is: engine.ErrOverload when the
// request is shed (queue full or circuit open), engine.ErrDeadlineExceeded
// when the per-request deadline (or the caller's context deadline) expires,
// engine.ErrBadParams / engine.ErrUnsupported for client-side rejections,
// and the engine's own error otherwise.
func (s *Server) Run(ctx context.Context, q engine.QueryID, p engine.Params) (*engine.Result, bool, error) {
	if s.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.timeout)
		defer cancel()
	}
	res, hit, err := s.run(ctx, q, p)
	if err != nil && errors.Is(err, context.DeadlineExceeded) {
		s.deadlined.Add(1)
		err = fmt.Errorf("serve: request deadline expired: %w", engine.ErrDeadlineExceeded)
	}
	if err == nil && res != nil && res.Degraded {
		s.degraded.Add(1)
	}
	return res, hit, err
}

func (s *Server) run(ctx context.Context, q engine.QueryID, p engine.Params) (*engine.Result, bool, error) {
	// Admission: resolve the plan fingerprint (compiling, and therefore
	// validating the parameters, on first sight of this parameterization).
	// Semantically identical requests share a key regardless of irrelevant
	// Params fields.
	cp, err := s.plans.get(q, p)
	if err != nil {
		return nil, false, err
	}
	fp := cp.fp
	// Pin the (engine, epoch) pair once: the execution below runs on exactly
	// this generation, so the epoch-keyed cache entry it may publish is
	// correct even if Swap lands mid-flight.
	pin := s.cur.Load()
	if s.cache == nil {
		return s.execute(ctx, pin.eng, q, p)
	}
	key := Key{System: s.system, Fingerprint: fp, Epoch: pin.epoch}
	if res, ok := s.cache.get(key); ok {
		return res, true, nil
	}
	return s.flights.run(ctx, s.cache, key, func() (*engine.Result, error) {
		res, _, err := s.execute(ctx, pin.eng, q, p)
		if err == nil {
			s.cache.put(key, res)
		}
		return res, err
	})
}

// execute admits one query through the semaphore and runs it on the pinned
// engine generation, applying the circuit breaker and the queue-depth load
// shedder first.
func (s *Server) execute(ctx context.Context, eng engine.Engine, q engine.QueryID, p engine.Params) (*engine.Result, bool, error) {
	if s.breaker != nil && !s.breaker.allow() {
		s.breakerDenials.Add(1)
		return nil, false, fmt.Errorf("serve: circuit open for %s: %w", s.system, engine.ErrOverload)
	}
	select {
	case s.slots <- struct{}{}: // free slot, no queueing
	default:
		if s.maxQueue > 0 && s.waiting.Load() >= int64(s.maxQueue) {
			s.shed.Add(1)
			return nil, false, fmt.Errorf("serve: admission queue full (%d waiting): %w",
				s.maxQueue, engine.ErrOverload)
		}
		s.waiting.Add(1)
		select {
		case s.slots <- struct{}{}:
			s.waiting.Add(-1)
		case <-ctx.Done():
			s.waiting.Add(-1)
			return nil, false, ctx.Err()
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
	res, err := eng.Run(ctx, q, p)
	s.noteOutcome(err)
	if err != nil {
		return nil, false, err
	}
	return res, false, nil
}

// noteOutcome feeds an engine result into the circuit breaker and failure
// stats. Client-side rejections and cancellations say nothing about the
// engine's health, so they neither trip nor reset the breaker.
func (s *Server) noteOutcome(err error) {
	if err == nil {
		if s.breaker != nil {
			s.breaker.onSuccess()
		}
		return
	}
	if errors.Is(err, engine.ErrBadParams) || errors.Is(err, engine.ErrUnsupported) ||
		errors.Is(err, engine.ErrOverload) || errors.Is(err, context.Canceled) {
		return
	}
	s.engineFailures.Add(1)
	if s.breaker != nil {
		s.breaker.onFailure()
	}
}

// Stats is a snapshot of the server's counters.
type Stats struct {
	// Admitted is the number of queries that executed on the engine (cache
	// hits are not admitted).
	Admitted int64
	// InFlight is the current number of executing queries.
	InFlight int64
	// PeakInFlight is the high-water mark of concurrent executing queries;
	// it can never exceed MaxConcurrent.
	PeakInFlight int64
	// CacheHits / CacheMisses are the cache counters, zero when caching is
	// disabled.
	CacheHits, CacheMisses int64
	// Coalesced counts requests answered by a twin's execution: they missed
	// the cache, waited on an identical in-flight query, and found its
	// answer published (each also counts once in CacheHits).
	Coalesced int64

	// Shed counts requests rejected because the admission queue was full,
	// BreakerDenials those rejected while the circuit was open — both typed
	// engine.ErrOverload at the caller.
	Shed, BreakerDenials int64
	// Deadlined counts requests failed with engine.ErrDeadlineExceeded.
	Deadlined int64
	// EngineFailures counts engine Run errors other than client-side
	// rejections and cancellations (the outcomes that feed the breaker).
	EngineFailures int64
	// Degraded counts completions whose run survived injected faults
	// (failover, retry, or hedge fired; the answer is still bit-identical).
	Degraded int64
	// BreakerOpen reports whether the circuit is currently open.
	BreakerOpen bool
}

// Stats returns a snapshot of the server's counters.
func (s *Server) Stats() Stats {
	st := Stats{
		Admitted:       s.admitted.Load(),
		InFlight:       s.inflight.Load(),
		PeakInFlight:   s.peak.Load(),
		Shed:           s.shed.Load(),
		BreakerDenials: s.breakerDenials.Load(),
		Deadlined:      s.deadlined.Load(),
		EngineFailures: s.engineFailures.Load(),
		Degraded:       s.degraded.Load(),
		Coalesced:      s.flights.coalesced.Load(),
	}
	if s.breaker != nil {
		st.BreakerOpen = s.breaker.isOpen()
	}
	if s.cache != nil {
		st.CacheHits = s.cache.hits.Load()
		st.CacheMisses = s.cache.misses.Load()
	}
	return st
}

// Key identifies one cacheable query execution: the serving system, the
// compiled plan's fingerprint, and the snapshot epoch the answer was computed
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

// Cache is a bounded shared result cache. Entries evict FIFO — the workload
// this serves (a small set of hot dashboard queries hit by many clients) has
// no use for fancier policies, and FIFO keeps eviction deterministic.
type Cache struct {
	mu      sync.Mutex
	entries map[Key]*engine.Result
	order   []Key // insertion order for FIFO eviction
	max     int

	hits, misses atomic.Int64
}

// NewCache creates a cache holding at most max results (0 means
// DefaultCacheEntries).
func NewCache(max int) *Cache {
	if max <= 0 {
		max = DefaultCacheEntries
	}
	return &Cache{entries: make(map[Key]*engine.Result, max), max: max}
}

// Len returns the number of cached results.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

func (c *Cache) get(k Key) (*engine.Result, bool) {
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
func (c *Cache) peek(k Key) (*engine.Result, bool) {
	c.mu.Lock()
	res, ok := c.entries[k]
	c.mu.Unlock()
	if ok {
		c.hits.Add(1)
		return res, true
	}
	return nil, false
}

func (c *Cache) put(k Key, res *engine.Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[k]; ok {
		return // an earlier put won (e.g. across servers sharing the cache)
	}
	if len(c.entries) >= c.max {
		oldest := c.order[0]
		c.order = c.order[1:]
		delete(c.entries, oldest)
	}
	c.entries[k] = res
	c.order = append(c.order, k)
}
