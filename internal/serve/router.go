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

// Router is the serving request path (DESIGN.md §11, §16): plan memo,
// result cache, single-flight coalescing, deadline typing and ranking, in
// front of the admission gates of its members. Over a fleet it holds every
// loaded configuration — single-node engines and virtual clusters at their
// node counts — and routes each request to the supported configuration
// cheapest in its measured cost table (cost.Online). Served traffic never
// moves that ranking; only the caller's explicit warm-up of that table
// does. Every Server is a one-member Router over its own gate, and a pinned
// baseline is a Router over a single backend.
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
//   - Overload re-routes instead of failing: when the chosen backend's gate
//     turns the request away (its circuit is open, typed engine.ErrOverload),
//     the router hedges down the ranked candidate list; only a fleet-wide
//     overload surfaces to the caller.
type Router struct {
	backends []*routerBackend
	model    *cost.Online // nil on a Server's one-member Router
	cache    *cache       // class-keyed results
	flights  flights

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
	// Server is the member's admission gate: its width, worker share,
	// circuit breaker and pinned engine generation. The fleet Router admits
	// requests to the gate directly, never through Server.Run, so the
	// Server's own cache goes unused; result caching is the fleet Router's,
	// keyed by answer class.
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
	r := &Router{model: model, cache: newCache(0)}
	seen := map[string]bool{}
	for _, b := range backends {
		if b.Server == nil {
			return nil, fmt.Errorf("serve: backend %q has no server", b.Config.Key())
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
// coalesced twin's execution). Admission outcomes are typed for errors.Is:
// engine.ErrBadParams for invalid parameters, engine.ErrUnsupported when no
// member supports the query, engine.ErrOverload when every candidate's
// circuit is open, engine.ErrDeadlineExceeded once the caller's context
// deadline passes (a wait for a slot included), and the engine's own error
// otherwise.
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
probe:
	for i, b := range ranked {
		for _, prev := range ranked[:i] {
			if prev.class == b.class {
				continue probe // already probed under a better-ranked member
			}
		}
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
	// execution. The leader publishes under the class that served and the
	// epoch its gate pinned, which the flight loop re-checks only for the
	// flight key — a leader re-routed to another class, or one that a Swap
	// moved to a newer epoch, leaves its waiters to contend again.
	flightKey := Key{System: ranked[0].class, Fingerprint: fp, Epoch: ranked[0].srv.Epoch()}
	return r.flights.run(ctx, r.cache, flightKey, func() (*engine.Result, error) {
		res, served, epoch, err := r.tryCandidates(ctx, ranked, q, p)
		if err == nil {
			r.cache.put(Key{System: served.class, Fingerprint: fp, Epoch: epoch}, res)
		}
		return res, err
	})
}

// rank returns the candidate backends for a query in routing order: the
// supported backends, sorted by predicted cost under the measured table
// when more than one supports it, ties kept in registration order. A
// one-member Router never prices.
func (r *Router) rank(pl *plan.Plan, q engine.QueryID) ([]*routerBackend, error) {
	ranked := make([]*routerBackend, 0, len(r.backends))
	for _, b := range r.backends {
		if b.srv.Engine().Supports(q) {
			ranked = append(ranked, b)
		}
	}
	if len(ranked) > 1 {
		ranked = r.byCost(pl, ranked)
	}
	if len(ranked) == 0 {
		return nil, fmt.Errorf("serve: no fleet configuration supports %s: %w", q, engine.ErrUnsupported)
	}
	return ranked, nil
}

// byCost orders cands by intrinsic predicted cost, stably, dropping any the
// table cannot price. Load is handled reactively — breakers open and
// tryCandidates hedges down this ranking — rather than folded into the
// score: predictive load scaling spills traffic to the second-cheapest
// backend whenever the cheapest is busy, which on a contended host adds no
// capacity, only slower service. Queueing briefly behind the most
// efficient backend beats dispatching to an idle one that is meaningfully
// slower.
func (r *Router) byCost(pl *plan.Plan, cands []*routerBackend) []*routerBackend {
	type scored struct {
		b    *routerBackend
		cost float64
	}
	sc := make([]scored, 0, len(cands))
	for _, b := range cands {
		if est, ok := r.model.Estimate(pl, b.cfg); ok {
			sc = append(sc, scored{b, est.TotalNs})
		}
	}
	sort.SliceStable(sc, func(i, j int) bool { return sc[i].cost < sc[j].cost })
	cands = cands[:0]
	for _, c := range sc {
		cands = append(cands, c.b)
	}
	return cands
}

// tryCandidates admits the request to the ranked members' gates in order,
// a hedged re-route: overload (an open circuit) moves to the next
// candidate; any other outcome — success, engine failure, cancellation — is
// final. A caller context that has ended before the next gate is tried
// returns its own error, not an overload: no gate turned the request away.
// On success it returns the member that served and the snapshot epoch its
// gate pinned, the epoch the answer is cached under.
func (r *Router) tryCandidates(ctx context.Context, ranked []*routerBackend, q engine.QueryID, p engine.Params) (*engine.Result, *routerBackend, uint64, error) {
	var lastErr error
	for i, b := range ranked {
		if err := ctx.Err(); err != nil {
			return nil, nil, 0, err
		}
		res, epoch, err := b.srv.execute(ctx, q, p)
		if err == nil {
			if i > 0 {
				r.rerouted.Add(1)
			}
			b.served.Add(1)
			return res, b, epoch, nil
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
	Stats  Stats  // the backend's gate counters
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

// Stats implements Runner: the members' gate counters added up (the peak
// is the highest member's), with the Router's own shedding, deadline,
// degradation, coalescing and cache counters.
func (r *Router) Stats() Stats {
	st := Stats{
		Shed:      r.shed.Load(),
		Deadlined: r.deadline.Load(),
		Degraded:  r.degraded.Load(),
		Coalesced: r.flights.coalesced.Load(),
	}
	for _, b := range r.backends {
		gs := b.srv.gateStats()
		st.Admitted += gs.Admitted
		st.InFlight += gs.InFlight
		st.PeakInFlight = max(st.PeakInFlight, gs.PeakInFlight)
		st.EngineFailures += gs.EngineFailures
		st.BreakerDenials += gs.BreakerDenials
		st.BreakerOpen = st.BreakerOpen || gs.BreakerOpen
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
			Stats:  b.srv.gateStats(),
		})
	}
	return rs
}
