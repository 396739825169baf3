package serve

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/genbase/genbase/internal/cost"
	"github.com/genbase/genbase/internal/engine"
)

// routeEngine is a stubEngine with a configurable support set and injectable
// failures, for router tests.
type routeEngine struct {
	stubEngine
	supports map[engine.QueryID]bool // nil = supports everything
	fail     error                   // returned by every Run when set
}

func (r *routeEngine) Supports(q engine.QueryID) bool {
	if r.supports == nil {
		return true
	}
	return r.supports[q]
}

func (r *routeEngine) Run(ctx context.Context, q engine.QueryID, p engine.Params) (*engine.Result, error) {
	if r.fail != nil {
		return nil, r.fail
	}
	return r.stubEngine.Run(ctx, q, p)
}

// testModel builds a cost model where "fast" is three orders of magnitude
// cheaper than "slow" on every operator.
func testModel() *cost.Online {
	m := &cost.Model{Coeffs: map[string]cost.Coeff{
		"fast": {DMNsPerUnit: 1, KernelNsPerUnit: 1},
		"slow": {DMNsPerUnit: 1000, KernelNsPerUnit: 1000},
	}}
	return cost.NewOnline(m, cost.FitDims)
}

func routerBackends(fast, slow engine.Engine) []Backend {
	return []Backend{
		{Server: New(fast, Options{MaxConcurrent: 2, DisableCache: true}), Config: cost.Config{System: "fast"}, Class: "a"},
		{Server: New(slow, Options{MaxConcurrent: 2, DisableCache: true}), Config: cost.Config{System: "slow"}, Class: "a"},
	}
}

func TestRouterRoutesToPredictedCheapest(t *testing.T) {
	fast := &routeEngine{stubEngine: stubEngine{name: "fast"}}
	slow := &routeEngine{stubEngine: stubEngine{name: "slow"}}
	r, err := NewRouter(routerBackends(fast, slow), RouterOptions{Model: testModel()})
	if err != nil {
		t.Fatal(err)
	}
	p := engine.DefaultParams()
	for i := 0; i < 8; i++ {
		p.Seed = uint64(i) // distinct fingerprints: no coalescing
		if _, _, err := r.Run(context.Background(), engine.Q4SVD, p); err != nil {
			t.Fatal(err)
		}
	}
	if got := fast.runs.Load(); got != 8 {
		t.Fatalf("cheap backend ran %d of 8", got)
	}
	if got := slow.runs.Load(); got != 0 {
		t.Fatalf("expensive backend ran %d queries, want 0", got)
	}
	rs := r.RouterStats()
	if rs.Rerouted != 0 {
		t.Fatalf("rerouted %d with no overload", rs.Rerouted)
	}
	if rs.Shares[0].Served != 8 || rs.Shares[1].Served != 0 {
		t.Fatalf("shares %+v", rs.Shares)
	}
}

func TestRouterNeverSelectsUnsupportedBackend(t *testing.T) {
	// "fast" is predicted far cheaper but only supports Q4; every other
	// query must land on "slow" without ever touching "fast".
	fast := &routeEngine{stubEngine: stubEngine{name: "fast"}, supports: map[engine.QueryID]bool{engine.Q4SVD: true}}
	slow := &routeEngine{stubEngine: stubEngine{name: "slow"}}
	r, err := NewRouter(routerBackends(fast, slow), RouterOptions{Model: testModel()})
	if err != nil {
		t.Fatal(err)
	}
	p := engine.DefaultParams()
	for _, q := range []engine.QueryID{engine.Q1Regression, engine.Q2Covariance, engine.Q5Statistics} {
		if _, _, err := r.Run(context.Background(), q, p); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	if got := fast.runs.Load(); got != 0 {
		t.Fatalf("unsupporting backend executed %d queries", got)
	}
	if got := slow.runs.Load(); got != 3 {
		t.Fatalf("supporting backend ran %d of 3", got)
	}

	// A query no fleet member supports is rejected as typed unsupported,
	// before any backend runs — including a query id that does not exist.
	none := &routeEngine{stubEngine: stubEngine{name: "fast"}, supports: map[engine.QueryID]bool{}}
	r2, err := NewRouter(routerBackends(none, none)[:1], RouterOptions{Model: testModel()})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := r2.Run(context.Background(), engine.Q4SVD, p); !errors.Is(err, engine.ErrUnsupported) {
		t.Fatalf("unsupported-everywhere error = %v, want ErrUnsupported", err)
	}
	if _, _, err := r2.Run(context.Background(), engine.QueryID(99), p); err == nil {
		t.Fatal("bogus query id routed somewhere")
	}
	if got := none.runs.Load(); got != 0 {
		t.Fatalf("backend executed %d unsupported queries", got)
	}
}

// A pinned baseline is a router over one backend: every request it
// supports runs there, and a query it does not support is a typed
// unsupported error, never a re-route.
func TestRouterOneMemberFleet(t *testing.T) {
	slow := &routeEngine{stubEngine: stubEngine{name: "slow"}}
	r, err := NewRouter([]Backend{
		{Server: New(slow, Options{MaxConcurrent: 2, DisableCache: true}), Config: cost.Config{System: "slow"}, Class: "a"},
	}, RouterOptions{Model: testModel()})
	if err != nil {
		t.Fatal(err)
	}
	p := engine.DefaultParams()
	for i := 0; i < 4; i++ {
		p.DiseaseID = int64(i + 1) // distinct fingerprints: no cache hits
		if _, _, err := r.Run(context.Background(), engine.Q2Covariance, p); err != nil {
			t.Fatal(err)
		}
	}
	if got := slow.runs.Load(); got != 4 {
		t.Fatalf("the only member ran %d of 4", got)
	}

	noQ2 := &routeEngine{stubEngine: stubEngine{name: "fast"}, supports: map[engine.QueryID]bool{engine.Q4SVD: true}}
	r2, err := NewRouter([]Backend{
		{Server: New(noQ2, Options{MaxConcurrent: 2, DisableCache: true}), Config: cost.Config{System: "fast"}, Class: "a"},
	}, RouterOptions{Model: testModel()})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := r2.Run(context.Background(), engine.Q2Covariance, p); !errors.Is(err, engine.ErrUnsupported) {
		t.Fatalf("unsupported query on a one-member fleet: %v, want ErrUnsupported", err)
	}
	if got := noQ2.runs.Load(); got != 0 {
		t.Fatalf("the member ran %d queries it does not support", got)
	}
}

func TestRouterHedgesToNextOnOverload(t *testing.T) {
	noLeak(t)
	fast := &routeEngine{stubEngine: stubEngine{name: "fast"}, fail: fmt.Errorf("kernel exploded")}
	slow := &routeEngine{stubEngine: stubEngine{name: "slow"}}
	backends := []Backend{
		{Server: New(fast, Options{MaxConcurrent: 1, DisableCache: true, BreakerThreshold: 1}), Config: cost.Config{System: "fast"}, Class: "a"},
		{Server: New(slow, Options{MaxConcurrent: 1, DisableCache: true}), Config: cost.Config{System: "slow"}, Class: "a"},
	}
	r, err := NewRouter(backends, RouterOptions{Model: testModel()})
	if err != nil {
		t.Fatal(err)
	}
	p := engine.DefaultParams()
	// First request: routed to the cheap backend, whose engine fails — an
	// engine failure is final (never silently re-run elsewhere), and it
	// opens the breaker.
	if _, _, err := r.Run(context.Background(), engine.Q1Regression, p); err == nil {
		t.Fatal("engine failure swallowed")
	}
	// Subsequent requests: the open breaker sheds with ErrOverload, and the
	// router hedges to the next-cheapest backend instead of failing.
	for i := 0; i < 3; i++ {
		p.FunctionThreshold = int64(251 + i) // distinct fingerprints: no cache hits
		if _, _, err := r.Run(context.Background(), engine.Q1Regression, p); err != nil {
			t.Fatalf("hedged request %d: %v", i, err)
		}
	}
	if got := slow.runs.Load(); got != 3 {
		t.Fatalf("fallback backend ran %d of 3", got)
	}
	rs := r.RouterStats()
	if rs.Rerouted != 3 {
		t.Fatalf("rerouted = %d, want 3", rs.Rerouted)
	}
	if rs.Shares[0].Failed != 1 {
		t.Fatalf("failed backend share %+v", rs.Shares[0])
	}
}

func TestRouterCacheIsClassKeyed(t *testing.T) {
	a := &routeEngine{stubEngine: stubEngine{name: "a"}, supports: map[engine.QueryID]bool{engine.Q2Covariance: true}}
	b := &routeEngine{stubEngine: stubEngine{name: "b"}, supports: map[engine.QueryID]bool{engine.Q2Covariance: true}}
	c := &routeEngine{stubEngine: stubEngine{name: "c"}}
	r, err := NewRouter([]Backend{
		{Server: New(a, Options{MaxConcurrent: 1, DisableCache: true}), Config: cost.Config{System: "fast"}, Class: "x"},
		{Server: New(b, Options{MaxConcurrent: 1, DisableCache: true}), Config: cost.Config{System: "fast", Nodes: 2}, Class: "x"},
		{Server: New(c, Options{MaxConcurrent: 1, DisableCache: true}), Config: cost.Config{System: "slow"}, Class: "y"},
	}, RouterOptions{Model: testModel()})
	if err != nil {
		t.Fatal(err)
	}
	p := engine.DefaultParams()

	// The first request executes on the cheapest backend, a, and caches
	// under class "x"; the repeat is a hit.
	if _, hit, err := r.Run(context.Background(), engine.Q2Covariance, p); err != nil || hit {
		t.Fatalf("first run: hit=%v err=%v", hit, err)
	}
	if _, hit, err := r.Run(context.Background(), engine.Q2Covariance, p); err != nil || !hit {
		t.Fatalf("repeat run: hit=%v err=%v", hit, err)
	}
	if a.runs.Load() != 1 || b.runs.Load() != 0 {
		t.Fatalf("class-x backends ran %d and %d, want 1 and 0", a.runs.Load(), b.runs.Load())
	}

	// Once a can no longer take the query, its class sibling b ranks first
	// and is served a's answer: entries are shared within the class.
	a.supports = map[engine.QueryID]bool{}
	if _, hit, err := r.Run(context.Background(), engine.Q2Covariance, p); err != nil || !hit {
		t.Fatalf("same-class run: hit=%v err=%v", hit, err)
	}
	if b.runs.Load() != 0 {
		t.Fatal("same-class sibling executed despite cached answer")
	}

	// Once only the class-"y" backend can take it, the class-"x" entry must
	// NOT serve it: different class, different bits.
	b.supports = map[engine.QueryID]bool{}
	if _, hit, err := r.Run(context.Background(), engine.Q2Covariance, p); err != nil || hit {
		t.Fatalf("cross-class run: hit=%v err=%v (class-x answer leaked to class y)", hit, err)
	}
	if c.runs.Load() != 1 {
		t.Fatalf("class-y backend ran %d, want 1", c.runs.Load())
	}
}

func TestRouterCoalescesAcrossFleet(t *testing.T) {
	noLeak(t)
	eng := &routeEngine{stubEngine: stubEngine{name: "fast", delay: 10 * time.Millisecond}}
	slow := &routeEngine{stubEngine: stubEngine{name: "slow"}}
	r, err := NewRouter(routerBackends(eng, slow), RouterOptions{Model: testModel()})
	if err != nil {
		t.Fatal(err)
	}
	p := engine.DefaultParams()
	const twins = 8
	errs := make(chan error, twins)
	for i := 0; i < twins; i++ {
		go func() {
			_, _, err := r.Run(context.Background(), engine.Q5Statistics, p)
			errs <- err
		}()
	}
	for i := 0; i < twins; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if got := eng.runs.Load() + slow.runs.Load(); got != 1 {
		t.Fatalf("%d identical cold requests executed %d times, want 1 (single-flight)", twins, got)
	}
	checkCoalesced(t, r.Stats(), twins)
}

func TestRouterRejectsBackendWithOwnCache(t *testing.T) {
	eng := &routeEngine{stubEngine: stubEngine{name: "fast"}}
	_, err := NewRouter([]Backend{
		{Server: New(eng, Options{MaxConcurrent: 1}), Config: cost.Config{System: "fast"}, Class: "a"},
	}, RouterOptions{})
	if err == nil {
		t.Fatal("backend with private cache accepted; double-caching would bypass class keying")
	}
}
