package serve

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync/atomic"

	"github.com/genbase/genbase/internal/cost"
	"github.com/genbase/genbase/internal/engine"
	"github.com/genbase/genbase/internal/plan"
)

// Router is the fleet front end (DESIGN.md §16): it holds every loaded
// configuration — single-node engines and virtual clusters at their node
// counts — behind one admission/cache/coalescing layer and routes each
// request to the supported configuration cheapest in its measured cost table
// (cost.Online). Served traffic never moves that ranking; only the caller's
// explicit warm-up of that table does. A pinned baseline is a Router over a
// single backend.
//
// The paper's finding is that no engine wins everywhere; the Router is that
// finding operationalized. Three properties make it safe:
//
//   - Support is ground truth, not configuration: a backend is a candidate
//     for a request only when its engine's Supports(query) — derived from
//     the compiled plan's operator footprint — says so. The router can never
//     select a (configuration, query) pair the engine would reject.
//   - Answers are equivalence-classed, not assumed identical. Engines in the
//     same class (dense single-node algebra; distributed row-block algebra;
//     the MapReduce pipeline) produce bit-identical answers — pinned by the
//     committed goldens — so the fleet-wide result cache is keyed by
//     (answer class, plan fingerprint): a cache entry produced by any
//     backend serves every backend of its class, and never a backend of
//     another class.
//   - Overload re-routes instead of failing: when the chosen backend sheds
//     (admission queue full or circuit open, both typed engine.ErrOverload),
//     the router hedges down the ranked candidate list; only a fleet-wide
//     overload surfaces to the caller.
type Router struct {
	backends []*routerBackend
	model    *cost.Online
	cache    *Cache
	flights  flights

	inflight atomic.Int64
	peak     atomic.Int64
	rerouted atomic.Int64 // served by other than the first-ranked backend
	shed     atomic.Int64 // fleet-wide overload: every candidate shed
	deadline atomic.Int64
	degraded atomic.Int64

	// plans memoizes (query, params) → compiled plan + fingerprint; the
	// router ranks by the plan's operators and keys its cache by the
	// fingerprint.
	plans planMemo
}

// Backend declares one fleet member for NewRouter.
type Backend struct {
	// Server wraps the loaded engine with its per-backend admission width
	// and circuit breaker. The server must not have its own cache
	// (NewRouter enforces this): result caching is the router's, keyed by
	// answer class.
	Server *Server
	// Config is the backend's cost-model identity: system and node count.
	Config cost.Config
	// Class is the answer-equivalence class ("dense", "dist", "mr" — see
	// core.FleetConfigs): backends of one class answer bit-identically, so
	// cached results are shared exactly within the class.
	Class string
}

type routerBackend struct {
	srv    *Server
	cfg    cost.Config
	key    string
	class  string
	served atomic.Int64 // completions this backend produced
	failed atomic.Int64 // engine errors this backend produced
}

// RouterOptions configures a Router.
type RouterOptions struct {
	// Model is the measured cost table the router ranks by; nil prices
	// from the committed table at cost.FitDims alone.
	Model *cost.Online
}

// NewRouter builds the fleet front end over loaded backends. Backend order
// is the deterministic tie-break: equal-cost candidates rank in registration
// order.
func NewRouter(backends []Backend, opts RouterOptions) (*Router, error) {
	if len(backends) == 0 {
		return nil, fmt.Errorf("serve: router needs at least one backend")
	}
	model := opts.Model
	if model == nil {
		model = cost.NewOnline(cost.Default(), cost.FitDims)
	}
	r := &Router{model: model, cache: NewCache(0)}
	seen := map[string]bool{}
	for _, b := range backends {
		if b.Server == nil {
			return nil, fmt.Errorf("serve: backend %q has no server", b.Config.Key())
		}
		if b.Server.cache != nil {
			return nil, fmt.Errorf("serve: backend %q has its own cache; the router owns caching (class-keyed)", b.Config.Key())
		}
		if b.Class == "" {
			return nil, fmt.Errorf("serve: backend %q has no answer class", b.Config.Key())
		}
		key := b.Config.Key()
		if seen[key] {
			return nil, fmt.Errorf("serve: duplicate backend %q", key)
		}
		seen[key] = true
		r.backends = append(r.backends, &routerBackend{srv: b.Server, cfg: b.Config, key: key, class: b.Class})
	}
	return r, nil
}

// Name identifies the router.
func (r *Router) Name() string { return "fleet/cost" }

// Run routes one request. The bool reports a cache hit (including a
// coalesced twin's execution). Error typing matches Server.Run:
// engine.ErrUnsupported when no fleet member supports the query,
// engine.ErrOverload when every candidate shed, engine.ErrDeadlineExceeded
// past the caller's context deadline, engine.ErrBadParams for invalid
// parameters.
func (r *Router) Run(ctx context.Context, q engine.QueryID, p engine.Params) (*engine.Result, bool, error) {
	res, hit, err := r.run(ctx, q, p)
	if err != nil && errors.Is(err, context.DeadlineExceeded) {
		r.deadline.Add(1)
		err = fmt.Errorf("serve: request deadline expired: %w", engine.ErrDeadlineExceeded)
	}
	if err == nil && res != nil && res.Degraded {
		r.degraded.Add(1)
	}
	return res, hit, err
}

func (r *Router) run(ctx context.Context, q engine.QueryID, p engine.Params) (*engine.Result, bool, error) {
	// Admission: compile (and so validate) the plan once; unknown queries
	// and bad parameters are rejected here, before any routing.
	cp, err := r.plans.get(q, p)
	if err != nil {
		return nil, false, err
	}
	pl, fp := cp.plan, cp.fp
	ranked, err := r.rank(pl, q)
	if err != nil {
		return nil, false, err
	}
	// Probe the cache once per distinct answer class, best-ranked class
	// first: a hit from any backend of a class is valid for every backend
	// of that class at the same snapshot epoch, and only for them. The probe
	// key carries the backend's current epoch, so entries from superseded
	// snapshots are never served forward.
	probed := map[string]bool{}
	for i, b := range ranked {
		if probed[b.class] {
			continue
		}
		probed[b.class] = true
		key := Key{System: b.class, Fingerprint: fp, Epoch: b.srv.Epoch()}
		if i == 0 {
			if res, ok := r.cache.get(key); ok { // get: record hit/miss once
				return res, true, nil
			}
		} else if res, ok := r.cache.peek(key); ok {
			return res, true, nil
		}
	}
	// Coalesce on the best-ranked (class, epoch): twins wait for one
	// execution. tryCandidates publishes under the class and epoch that
	// actually served, which the flight loop re-checks only for the flight
	// key — a re-routed leader's waiters simply contend again (rare: it
	// takes a cross-class failover or a mid-flight epoch swap).
	flightKey := Key{System: ranked[0].class, Fingerprint: fp, Epoch: ranked[0].srv.Epoch()}
	return r.flights.run(ctx, r.cache, flightKey, func() (*engine.Result, error) {
		res, served, epoch, err := r.tryCandidates(ctx, ranked, q, p)
		if err == nil && served != nil {
			r.cache.put(Key{System: served.class, Fingerprint: fp, Epoch: epoch}, res)
		}
		return res, err
	})
}

// rank returns the candidate backends for a query in routing order: the
// supported backends sorted by predicted cost under the measured table, ties
// broken by registration order.
func (r *Router) rank(pl *plan.Plan, q engine.QueryID) ([]*routerBackend, error) {
	type scored struct {
		b    *routerBackend
		cost float64
		idx  int
	}
	var cands []scored
	for i, b := range r.backends {
		if !b.srv.Engine().Supports(q) {
			continue
		}
		est, ok := r.model.Estimate(pl, b.cfg)
		if !ok {
			continue
		}
		// Rank by intrinsic predicted cost alone. Load is handled
		// reactively — bounded queues shed, breakers open, and
		// tryCandidates hedges down this ranking — rather than folded into
		// the score: predictive load scaling spills traffic to the
		// second-cheapest backend whenever the cheapest is busy, which on a
		// contended host adds no capacity, only slower service. Queueing
		// briefly behind the most efficient backend beats dispatching to an
		// idle one that is meaningfully slower.
		cands = append(cands, scored{b: b, cost: est.TotalNs, idx: i})
	}
	if len(cands) == 0 {
		return nil, fmt.Errorf("serve: no fleet configuration supports %s: %w", q, engine.ErrUnsupported)
	}
	sort.SliceStable(cands, func(a, b int) bool {
		if cands[a].cost != cands[b].cost {
			return cands[a].cost < cands[b].cost
		}
		return cands[a].idx < cands[b].idx
	})
	out := make([]*routerBackend, len(cands))
	for i, c := range cands {
		out[i] = c.b
	}
	return out, nil
}

// tryCandidates executes on the ranked candidates with hedged re-route:
// overload (shed or breaker-open) moves to the next candidate; any other
// outcome — success, engine failure, cancellation — is final.
//
// The returned epoch is the snapshot epoch the winning backend served at,
// valid for cache publication only when the backend is also returned non-nil:
// when the backend's epoch moved while the request was in flight (Swap raced
// the execution), the answer is still correct for its caller — the server
// pinned a generation at admission — but this layer can no longer prove
// *which* epoch it pinned, so it withholds publication rather than risk
// poisoning the class cache with an answer filed under the wrong epoch.
func (r *Router) tryCandidates(ctx context.Context, ranked []*routerBackend, q engine.QueryID, p engine.Params) (*engine.Result, *routerBackend, uint64, error) {
	cur := r.inflight.Add(1)
	defer r.inflight.Add(-1)
	for {
		old := r.peak.Load()
		if cur <= old || r.peak.CompareAndSwap(old, cur) {
			break
		}
	}
	var lastErr error
	for i, b := range ranked {
		if ctx.Err() != nil {
			if lastErr == nil {
				lastErr = ctx.Err()
			}
			break
		}
		e1 := b.srv.Epoch()
		res, _, err := b.srv.Run(ctx, q, p)
		e2 := b.srv.Epoch()
		if err == nil {
			if i > 0 {
				r.rerouted.Add(1)
			}
			b.served.Add(1)
			if e1 != e2 {
				// Epoch moved mid-flight: correct answer, unprovable epoch —
				// serve it, don't publish it.
				return res, nil, 0, nil
			}
			return res, b, e1, nil
		}
		if errors.Is(err, engine.ErrOverload) {
			lastErr = err
			continue // hedged re-route: the next-cheapest candidate takes it
		}
		b.failed.Add(1)
		return nil, nil, 0, err
	}
	r.shed.Add(1)
	return nil, nil, 0, fmt.Errorf("serve: all %d candidate configurations overloaded for %s: %w",
		len(ranked), q, errors.Join(lastErr, engine.ErrOverload))
}

// BackendShare is one fleet member's slice of the routed traffic.
type BackendShare struct {
	Key    string // configuration key ("scidb@2n")
	Class  string // answer-equivalence class
	Served int64  // completions this backend produced
	Failed int64  // engine errors this backend produced
	Stats  Stats  // the backend server's own counters
}

// RouterStats is the fleet-level snapshot.
type RouterStats struct {
	Stats
	// Rerouted counts requests served by other than their first-ranked
	// backend (the hedge fired).
	Rerouted int64
	// Shares lists every backend's traffic slice in registration order.
	Shares []BackendShare
}

// Stats implements Runner with fleet-aggregated counters.
func (r *Router) Stats() Stats {
	st := Stats{
		InFlight:     r.inflight.Load(),
		PeakInFlight: r.peak.Load(),
		Shed:         r.shed.Load(),
		Deadlined:    r.deadline.Load(),
		Degraded:     r.degraded.Load(),
		Coalesced:    r.flights.coalesced.Load(),
	}
	for _, b := range r.backends {
		bs := b.srv.Stats()
		st.Admitted += bs.Admitted
		st.EngineFailures += bs.EngineFailures
		st.BreakerDenials += bs.BreakerDenials
		st.Shed += bs.Shed
		if bs.BreakerOpen {
			st.BreakerOpen = true
		}
	}
	st.CacheHits = r.cache.hits.Load()
	st.CacheMisses = r.cache.misses.Load()
	return st
}

// RouterStats returns the fleet snapshot with per-backend shares.
func (r *Router) RouterStats() RouterStats {
	rs := RouterStats{Stats: r.Stats(), Rerouted: r.rerouted.Load()}
	for _, b := range r.backends {
		rs.Shares = append(rs.Shares, BackendShare{
			Key:    b.key,
			Class:  b.class,
			Served: b.served.Load(),
			Failed: b.failed.Load(),
			Stats:  b.srv.Stats(),
		})
	}
	return rs
}
