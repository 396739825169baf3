package serve

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/genbase/genbase/internal/core"
	"github.com/genbase/genbase/internal/datagen"
	"github.com/genbase/genbase/internal/engine"
	"github.com/genbase/genbase/internal/faults"
	"github.com/genbase/genbase/internal/multinode"
)

// stubEngine is a controllable engine for admission/cache tests.
type stubEngine struct {
	name    string
	delay   time.Duration
	runs    atomic.Int64
	active  atomic.Int64
	peak    atomic.Int64
	workers atomic.Int64 // last SetWorkers value
	// started, when non-nil, is closed by the first Run.
	started   chan struct{}
	startOnce sync.Once
	// hold, when non-nil, keeps every Run until it is closed (or the
	// request's context ends).
	hold chan struct{}
}

func (s *stubEngine) Name() string                 { return s.name }
func (s *stubEngine) Load(*datagen.Dataset) error  { return nil }
func (s *stubEngine) Supports(engine.QueryID) bool { return true }
func (s *stubEngine) Close() error                 { return nil }
func (s *stubEngine) SetWorkers(n int)             { s.workers.Store(int64(n)) }

func (s *stubEngine) Run(ctx context.Context, q engine.QueryID, p engine.Params) (*engine.Result, error) {
	cur := s.active.Add(1)
	defer s.active.Add(-1)
	if s.started != nil {
		s.startOnce.Do(func() { close(s.started) })
	}
	for {
		old := s.peak.Load()
		if cur <= old || s.peak.CompareAndSwap(old, cur) {
			break
		}
	}
	if s.delay > 0 {
		select {
		case <-time.After(s.delay):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if s.hold != nil {
		select {
		case <-s.hold:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	s.runs.Add(1)
	return &engine.Result{Query: q, Answer: &engine.SVDAnswer{SingularValues: []float64{float64(q)}}}, nil
}

// noLeak fails the test if it ends with more goroutines running than it
// started with. Exiting goroutines are still counted for a moment, so the
// count is polled for up to a second before failing.
func noLeak(t *testing.T) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		for i := 0; runtime.NumGoroutine() > before && i < 1000; i++ {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > before {
			t.Errorf("%d goroutines before the test, %d after", before, n)
		}
	})
}

func TestAdmissionNeverExceedsWidth(t *testing.T) {
	noLeak(t)
	eng := &stubEngine{name: "stub", delay: 5 * time.Millisecond}
	srv := New(eng, Options{MaxConcurrent: 2})
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Distinct params per call so nothing could be deduplicated.
			p := engine.DefaultParams()
			p.Seed = uint64(i)
			if _, _, err := srv.Run(context.Background(), engine.Q4SVD, p); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if got := eng.peak.Load(); got > 2 {
		t.Fatalf("engine saw %d concurrent queries, admission width is 2", got)
	}
	st := srv.Stats()
	if st.PeakInFlight > 2 {
		t.Fatalf("server reports peak in-flight %d > width 2", st.PeakInFlight)
	}
	if st.Admitted != 16 {
		t.Fatalf("admitted %d of 16", st.Admitted)
	}
	if st.InFlight != 0 {
		t.Fatalf("in-flight %d after all queries returned", st.InFlight)
	}
}

func TestCacheServesRepeatedQueries(t *testing.T) {
	eng := &stubEngine{name: "stub"}
	srv := New(eng, Options{MaxConcurrent: 2})
	p := engine.DefaultParams()
	var first *engine.Result
	for i := 0; i < 10; i++ {
		res, hit, err := srv.Run(context.Background(), engine.Q2Covariance, p)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			if hit {
				t.Fatal("first query reported a cache hit")
			}
			first = res
		} else {
			if !hit {
				t.Fatalf("query %d missed the cache", i)
			}
			if res != first {
				t.Fatalf("cache returned a different result pointer")
			}
		}
	}
	if got := eng.runs.Load(); got != 1 {
		t.Fatalf("engine executed %d times, want 1", got)
	}
	st := srv.Stats()
	if st.CacheHits != 9 {
		t.Fatalf("cache hits %d, want 9", st.CacheHits)
	}
	// Different params miss.
	p2 := p
	p2.DiseaseID++
	if _, hit, err := srv.Run(context.Background(), engine.Q2Covariance, p2); err != nil || hit {
		t.Fatalf("changed params: hit=%v err=%v", hit, err)
	}
	if got := eng.runs.Load(); got != 2 {
		t.Fatalf("engine executed %d times after param change, want 2", got)
	}
	// Admitted counts engine executions only, and each executed query
	// records exactly one miss (the post-admission re-check must not
	// double-count).
	st = srv.Stats()
	if st.Admitted != 2 {
		t.Fatalf("admitted %d, want 2 (cache hits are not admitted)", st.Admitted)
	}
	if st.CacheMisses != 2 {
		t.Fatalf("cache misses %d, want 2", st.CacheMisses)
	}
}

// A cold-cache stampede of identical queries must coalesce onto one engine
// execution even when admission slots are free for all of them.
func TestColdCacheStampedeExecutesOnce(t *testing.T) {
	eng := &stubEngine{name: "stub", delay: 20 * time.Millisecond}
	srv := New(eng, Options{MaxConcurrent: 8})
	p := engine.DefaultParams()
	const twins = 8
	results := make([]*engine.Result, twins)
	var wg sync.WaitGroup
	for i := 0; i < twins; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, _, err := srv.Run(context.Background(), engine.Q4SVD, p)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = res
		}(i)
	}
	wg.Wait()
	if got := eng.runs.Load(); got != 1 {
		t.Fatalf("stampede of %d identical queries executed %d times, want 1", twins, got)
	}
	for i := 1; i < twins; i++ {
		if results[i] != results[0] {
			t.Fatalf("twin %d got a different result pointer", i)
		}
	}
	st := srv.Stats()
	if st.Admitted != 1 {
		t.Fatalf("admitted %d, want 1", st.Admitted)
	}
	checkCoalesced(t, st, twins)
}

// checkCoalesced checks a stampede's counters once its twins have executed
// once: every twin but the leader was answered either by a plain cache hit
// (it looked up after the leader published) or by coalescing (it missed,
// waited on the leader and found its answer). How many took which path
// depends on scheduling, so only the sum is exact.
func checkCoalesced(t *testing.T, st Stats, twins int64) {
	t.Helper()
	plain := twins - st.CacheMisses // twins whose first lookup hit
	if st.Coalesced+plain != twins-1 || st.CacheHits != twins-1 {
		t.Fatalf("%d twins: coalesced %d + plain hits %d (hits %d, misses %d), want %d answered without executing",
			twins, st.Coalesced, plain, st.CacheHits, st.CacheMisses, twins-1)
	}
}

// Coalesced counts only requests that waited on an in-flight twin. Repeats
// issued one after another find the answer already cached: plain hits, on
// the Server and the Router alike.
func TestSequentialRepeatsAreNotCoalesced(t *testing.T) {
	eng := &stubEngine{name: "stub"}
	srv := New(eng, Options{MaxConcurrent: 2})
	fast := &routeEngine{stubEngine: stubEngine{name: "fast"}}
	slow := &routeEngine{stubEngine: stubEngine{name: "slow"}}
	r, err := NewRouter(routerBackends(fast, slow), RouterOptions{Model: testModel()})
	if err != nil {
		t.Fatal(err)
	}
	p := engine.DefaultParams()
	for i := 0; i < 4; i++ {
		if _, _, err := srv.Run(context.Background(), engine.Q4SVD, p); err != nil {
			t.Fatal(err)
		}
		if _, _, err := r.Run(context.Background(), engine.Q4SVD, p); err != nil {
			t.Fatal(err)
		}
	}
	for name, st := range map[string]Stats{"server": srv.Stats(), "router": r.Stats()} {
		if st.Coalesced != 0 || st.CacheHits != 3 || st.CacheMisses != 1 {
			t.Errorf("%s: coalesced %d, hits %d, misses %d; want 0, 3, 1", name, st.Coalesced, st.CacheHits, st.CacheMisses)
		}
	}
}

// The cache key is the plan fingerprint, which covers exactly the parameters
// the compiled query reads. Two Params differing only in fields irrelevant
// to the query (MaxAge, SampleFrac, DiseaseID for Q4) must hit the same
// entry; a change to a field the query does read (SVDK) must miss.
func TestCacheKeyIgnoresIrrelevantParams(t *testing.T) {
	eng := &stubEngine{name: "stub"}
	srv := New(eng, Options{MaxConcurrent: 2})
	p := engine.DefaultParams()
	first, hit, err := srv.Run(context.Background(), engine.Q4SVD, p)
	if err != nil || hit {
		t.Fatalf("first run: hit=%v err=%v", hit, err)
	}
	// Irrelevant fields changed: Q4's plan never reads them.
	p2 := p
	p2.MaxAge += 25
	p2.SampleFrac = 0.5
	p2.DiseaseID++
	p2.Gender = 'F'
	res, hit, err := srv.Run(context.Background(), engine.Q4SVD, p2)
	if err != nil {
		t.Fatal(err)
	}
	if !hit || res != first {
		t.Fatalf("Q4 with changed irrelevant params missed the cache (hit=%v)", hit)
	}
	if got := eng.runs.Load(); got != 1 {
		t.Fatalf("engine executed %d times, want 1", got)
	}
	// A parameter Q4 does read misses.
	p3 := p
	p3.SVDK++
	if _, hit, err := srv.Run(context.Background(), engine.Q4SVD, p3); err != nil || hit {
		t.Fatalf("changed SVDK: hit=%v err=%v", hit, err)
	}
	if got := eng.runs.Load(); got != 2 {
		t.Fatalf("engine executed %d times after SVDK change, want 2", got)
	}
}

// Admission rejects out-of-range parameters by compiling the plan — the
// engine must never see the request.
func TestAdmissionRejectsBadParams(t *testing.T) {
	eng := &stubEngine{name: "stub"}
	srv := New(eng, Options{MaxConcurrent: 2})
	p := engine.DefaultParams()
	p.SVDK = 0
	if _, _, err := srv.Run(context.Background(), engine.Q4SVD, p); !errors.Is(err, engine.ErrBadParams) {
		t.Fatalf("want ErrBadParams, got %v", err)
	}
	if got := eng.runs.Load(); got != 0 {
		t.Fatalf("engine executed %d times for a rejected request", got)
	}
}

func TestWorkerBudgetSplitAcrossSlots(t *testing.T) {
	for _, tc := range []struct {
		budget, slots, want int
	}{
		{budget: 8, slots: 4, want: 2},
		{budget: 3, slots: 4, want: 1}, // never below one worker
		{budget: 9, slots: 2, want: 4},
	} {
		eng := &stubEngine{name: "stub"}
		New(eng, Options{MaxConcurrent: tc.slots, WorkerBudget: tc.budget})
		if got := eng.workers.Load(); got != int64(tc.want) {
			t.Errorf("budget %d over %d slots: SetWorkers(%d), want %d", tc.budget, tc.slots, got, tc.want)
		}
	}
}

func TestCacheEvictsFIFO(t *testing.T) {
	c := newCache(2)
	mk := func(i int) (Key, *engine.Result) {
		return Key{System: "s", Fingerprint: fmt.Sprintf("q1|fp%d", i)},
			&engine.Result{Query: engine.Q1Regression}
	}
	k1, r1 := mk(1)
	k2, r2 := mk(2)
	k3, r3 := mk(3)
	c.put(k1, r1)
	c.put(k2, r2)
	c.put(k3, r3) // evicts k1
	if _, ok := c.get(k1); ok {
		t.Fatal("oldest entry not evicted")
	}
	if _, ok := c.get(k2); !ok {
		t.Fatal("second entry evicted early")
	}
	if _, ok := c.get(k3); !ok {
		t.Fatal("newest entry missing")
	}
	if c.Len() != 2 {
		t.Fatalf("cache holds %d entries, max 2", c.Len())
	}
}

// The serve acceptance contract (ISSUE 3): N concurrent queries through the
// serving layer produce answers bitwise identical to a serial run, for every
// single-node engine and every query it supports. reflect.DeepEqual compares
// the answer structs' float64 payloads exactly — no tolerance — so any
// shared-state corruption (scratch reuse, pool races, pivot aliasing) that
// flips even one bit fails here. Run with -race this doubles as the data-race
// stress test for the whole storage→engine→kernel path.
func TestConcurrentAnswersBitwiseIdenticalToSerial(t *testing.T) {
	ds := datagen.MustGenerate(datagen.Config{Size: datagen.Small, Scale: 0.4, Seed: 7})
	params := engine.DefaultParams()
	queries := engine.AllQueries()

	for _, cfg := range core.SingleNodeConfigs() {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			eng := cfg.New(1, t.TempDir())
			defer eng.Close()
			if err := eng.Load(ds); err != nil {
				t.Fatal(err)
			}

			// Serial ground truth, straight on the engine.
			serial := make(map[engine.QueryID]any)
			var supported []engine.QueryID
			for _, q := range queries {
				if !eng.Supports(q) {
					continue
				}
				res, err := eng.Run(context.Background(), q, params)
				if err != nil {
					t.Fatalf("serial %s: %v", q, err)
				}
				serial[q] = res.Answer
				supported = append(supported, q)
			}

			// Concurrent: C clients each run the full supported list through
			// the serving layer, one Server per client so that no client's
			// run is answered from another's cache: every run truly executes.
			const clients = 4
			srvs := make([]*Server, clients)
			for c := range srvs {
				srvs[c] = New(eng, Options{MaxConcurrent: 1})
			}
			errCh := make(chan error, clients)
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					for i := range supported {
						// Stagger starting points so different queries overlap.
						q := supported[(i+c)%len(supported)]
						res, _, err := srvs[c].Run(context.Background(), q, params)
						if err != nil {
							errCh <- fmt.Errorf("client %d %s: %w", c, q, err)
							return
						}
						if !reflect.DeepEqual(res.Answer, serial[q]) {
							errCh <- fmt.Errorf("client %d: %s answer diverges from serial run", c, q)
							return
						}
					}
				}(c)
			}
			wg.Wait()
			close(errCh)
			for err := range errCh {
				t.Error(err)
			}
		})
	}
}

// TestDistServeConcurrentMatchesSerial extends the serve acceptance contract
// to the cluster tier: parallel clients against one multinode Engine through
// the serving layer produce answers bitwise identical to a serial run, for
// every virtual-cluster configuration and every scenario. Each query
// executes on its own virtual cluster, so the simulated clocks are
// query-local; with -race this doubles as the data-race stress test for the
// shard→distributed-kernel path. The cluster Hadoop wrapper runs every
// query's MR jobs on its own cluster too, and rides along at 2 nodes.
// (Concurrent queries time-share the host's cores, which can perturb the
// measured — hence virtual — durations; the contract is about answers,
// which must not move by a bit.)
//
// The served node-kill drill rides along: pbdr at 4 nodes with replication
// 2 loses node 1 at its second exec step of every query, and every served
// answer must still equal the fault-free serial run. Queries that put shard
// work on node 1 past that step fail over and report Degraded; pbdr runs
// biclustering and statistics on the coordinator, so those two never do.
func TestDistServeConcurrentMatchesSerial(t *testing.T) {
	ds := datagen.MustGenerate(datagen.Config{Size: datagen.Small, Scale: 0.4, Seed: 7})
	params := engine.DefaultParams()

	type drill struct {
		name        string
		build       func() engine.Engine
		faults      string // served under this plan; serial truth stays fault-free
		replication int
	}
	var drills []drill
	for _, kind := range multinode.AllKinds() {
		drills = append(drills, drill{name: kind.String() + "@2n",
			build: func() engine.Engine { return multinode.New(kind, 2) }})
	}
	drills = append(drills,
		drill{name: "hadoop@2n", build: func() engine.Engine { return multinode.NewHadoop(2) }},
		drill{name: "pbdr@4n/crash:1@2", build: func() engine.Engine { return multinode.New(multinode.PBDR, 4) },
			faults: "crash:1@2", replication: 2})

	for _, d := range drills {
		t.Run(d.name, func(t *testing.T) {
			noLeak(t)
			eng := d.build()
			defer eng.Close()
			if err := eng.Load(ds); err != nil {
				t.Fatal(err)
			}

			// Serial ground truth, straight on the fault-free engine.
			serial := make(map[engine.QueryID]any)
			var supported []engine.QueryID
			for _, q := range engine.AllScenarios() {
				if !eng.Supports(q) {
					continue
				}
				res, err := eng.Run(context.Background(), q, params)
				if err != nil {
					t.Fatalf("serial %s: %v", q, err)
				}
				serial[q] = res.Answer
				supported = append(supported, q)
			}
			// Which queries the plan degrades is a pure function of the plan,
			// so one serial faulted pass fixes the Degraded flag every served
			// run of the same query must report.
			degraded := make(map[engine.QueryID]bool)
			if d.faults != "" {
				plan, err := faults.Parse(d.faults)
				if err != nil {
					t.Fatal(err)
				}
				fe := eng.(*multinode.Engine)
				fe.SetFaults(plan)
				fe.SetReplication(d.replication)
				for _, q := range supported {
					res, err := eng.Run(context.Background(), q, params)
					if err != nil {
						t.Fatalf("serial %s under %q: %v", q, d.faults, err)
					}
					degraded[q] = res.Degraded
				}
				if !degraded[engine.Q1Regression] || !degraded[engine.Q2Covariance] {
					t.Fatalf("fault plan %q never fired on regression/covariance: %v", d.faults, degraded)
				}
			}

			const clients = 4
			srvs := make([]*Server, clients) // one per client, as above
			for c := range srvs {
				srvs[c] = New(eng, Options{MaxConcurrent: 1})
			}
			errCh := make(chan error, clients)
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					for i := range supported {
						q := supported[(i+c)%len(supported)]
						res, _, err := srvs[c].Run(context.Background(), q, params)
						if err != nil {
							errCh <- fmt.Errorf("client %d %s: %w", c, q, err)
							return
						}
						if !reflect.DeepEqual(res.Answer, serial[q]) {
							errCh <- fmt.Errorf("client %d: %s answer diverges from serial run", c, q)
							return
						}
						if res.Degraded != degraded[q] {
							errCh <- fmt.Errorf("client %d: %s Degraded=%v, the serial run under %q says %v", c, q, res.Degraded, d.faults, degraded[q])
							return
						}
					}
				}(c)
			}
			wg.Wait()
			close(errCh)
			for err := range errCh {
				t.Error(err)
			}
		})
	}
}

// TestDistServeCachesByPlanFingerprint proves the cluster tier plugs into
// the plan-fingerprint result cache like any single-node engine: repeated
// hot queries are answered without re-execution, and parameterizations
// differing only in fields the query ignores coalesce onto one entry.
func TestDistServeCachesByPlanFingerprint(t *testing.T) {
	ds := datagen.MustGenerate(datagen.Config{Size: datagen.Small, Scale: 0.4, Seed: 7})
	eng := multinode.New(multinode.PBDR, 2)
	defer eng.Close()
	if err := eng.Load(ds); err != nil {
		t.Fatal(err)
	}
	srv := New(eng, Options{MaxConcurrent: 2})
	p := engine.DefaultParams()
	res1, hit, err := srv.Run(context.Background(), engine.Q1Regression, p)
	if err != nil || hit {
		t.Fatalf("first run: hit=%v err=%v", hit, err)
	}
	// Same query, different irrelevant field: must coalesce to the cached
	// plan fingerprint.
	p2 := p
	p2.MaxAge = 77
	res2, hit, err := srv.Run(context.Background(), engine.Q1Regression, p2)
	if err != nil || !hit {
		t.Fatalf("coalesced run: hit=%v err=%v", hit, err)
	}
	if !reflect.DeepEqual(res1.Answer, res2.Answer) {
		t.Fatal("cached answer diverges")
	}
	if st := srv.Stats(); st.Admitted != 1 {
		t.Fatalf("expected one admission, got %d", st.Admitted)
	}
}
