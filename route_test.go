package genbase

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"testing"

	"github.com/genbase/genbase/internal/core"
	"github.com/genbase/genbase/internal/datagen"
	"github.com/genbase/genbase/internal/engine"
	"github.com/genbase/genbase/internal/serve"
)

// classGoldenKey maps an answer-equivalence class to the configuration whose
// committed goldens represent it. The golden sweep proved the committed
// hashes form exactly these classes (every member of a class hashes
// identically per query), so one representative pins them all:
//
//	dense — vanilla-r (all single-node engines + the colstore-udf cluster)
//	dist  — pbdr@4n (the distributed row-block clusters; answers are
//	        node-count invariant by construction, DESIGN.md §13)
//	mr    — hadoop (the MapReduce combiner tree, single and cluster)
func classGoldenKey(class string, q engine.QueryID) string {
	switch class {
	case core.ClassDense:
		return "vanilla-r/" + q.String()
	case core.ClassDist:
		return "pbdr@4n/" + q.String()
	case core.ClassMR:
		return "hadoop/" + q.String()
	}
	return ""
}

// fleetUnderTest loads the full 14-configuration fleet over the small
// dataset once and returns a backend builder (servers are per-test: they
// carry breakers and counters).
func fleetUnderTest(t *testing.T) ([]core.FleetMember, func() []serve.Backend) {
	t.Helper()
	ds, err := datagen.Generate(datagen.Config{Size: datagen.Small, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := core.FleetConfigs(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(fleet) != 14 {
		t.Fatalf("fleet has %d configurations, want 14 (8 single-node + 6 cluster)", len(fleet))
	}
	engines := make([]engine.Engine, len(fleet))
	for i, m := range fleet {
		eng := m.New(t.TempDir())
		t.Cleanup(func() { eng.Close() })
		if err := eng.Load(ds); err != nil {
			t.Fatalf("%s: load: %v", m.Key, err)
		}
		engines[i] = eng
	}
	backends := func() []serve.Backend {
		out := make([]serve.Backend, len(fleet))
		for i, m := range fleet {
			out[i] = serve.Backend{
				Server: serve.New(engines[i], serve.Options{MaxConcurrent: 2, DisableCache: true}),
				Config: m.Config,
				Class:  m.Class,
			}
		}
		return out
	}
	return fleet, backends
}

func loadGoldens(t *testing.T) map[string]string {
	t.Helper()
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]string)
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestRoutedAnswersMatchGoldens is the routing layer's answer-correctness
// gate: every one of the 14 fleet configurations, addressed through the
// router with a static pin, produces answers hash-equal to the committed
// pre-refactor goldens of its answer-equivalence class. Routing changes who
// computes; it must never change a bit of what is computed.
func TestRoutedAnswersMatchGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet sweep is not short")
	}
	fleet, backends := fleetUnderTest(t)
	want := loadGoldens(t)
	p := engine.DefaultParams()
	for i, m := range fleet {
		router, err := serve.NewRouter(backends()[i:i+1], serve.RouterOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range engine.AllQueries() {
			golden := want[classGoldenKey(m.Class, q)]
			res, hit, err := router.Run(context.Background(), q, p)
			if err != nil {
				if errors.Is(err, engine.ErrUnsupported) {
					if golden != "" && backends()[i].Server.Engine().Supports(q) {
						t.Errorf("%s: router rejected supported %s", m.Key, q)
					}
					continue
				}
				t.Fatalf("%s %s: %v", m.Key, q, err)
			}
			if hit {
				t.Fatalf("%s %s: cache hit on the query's first run", m.Key, q)
			}
			if golden == "" {
				t.Fatalf("%s (%s): no golden for %s", m.Key, m.Class, q)
			}
			if got := goldenAnswerHash(t, res.Answer); got != golden {
				t.Errorf("%s %s: answer hash %s != class %s golden %s", m.Key, q, got, m.Class, golden)
			}
		}
	}
}

// TestCostRoutedAnswersAreClassValid drives the cost-routing policy over
// every scenario and asserts each answer is bit-identical to a committed
// class golden — whichever backend the model picked, the bits it returned
// are ones some paper configuration is pinned to produce.
func TestCostRoutedAnswersAreClassValid(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet sweep is not short")
	}
	_, backends := fleetUnderTest(t)
	want := loadGoldens(t)
	valid := func(q engine.QueryID) map[string]bool {
		v := map[string]bool{}
		for _, class := range []string{core.ClassDense, core.ClassDist, core.ClassMR} {
			if h, ok := want[classGoldenKey(class, q)]; ok {
				v[h] = true
			}
		}
		return v
	}
	router, err := serve.NewRouter(backends(), serve.RouterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	p := engine.DefaultParams()
	for _, q := range engine.AllQueries() {
		res, _, err := router.Run(context.Background(), q, p)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if !valid(q)[goldenAnswerHash(t, res.Answer)] {
			t.Errorf("%s: cost-routed answer matches no class golden", q)
		}
		// The repeat must be a (class-keyed) cache hit with identical bits.
		res2, hit, err := router.Run(context.Background(), q, p)
		if err != nil || !hit {
			t.Fatalf("%s repeat: hit=%v err=%v", q, hit, err)
		}
		if goldenAnswerHash(t, res2.Answer) != goldenAnswerHash(t, res.Answer) {
			t.Errorf("%s: cached answer diverges from executed answer", q)
		}
	}
}

// TestRouterNeverSelectsUnsupportedPair is the ground-truth support gate
// against the real engines: for every (configuration, query) pair the
// engine itself rejects, the pinned router surfaces typed ErrUnsupported —
// it never "helpfully" re-routes a pinned request, and never dispatches a
// query to an engine that cannot run it. A probe query id that exists in no
// registry is rejected fleet-wide.
func TestRouterNeverSelectsUnsupportedPair(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet sweep is not short")
	}
	fleet, backends := fleetUnderTest(t)
	p := engine.DefaultParams()
	bs := backends()
	for i, m := range fleet {
		router, err := serve.NewRouter(backends()[i:i+1], serve.RouterOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range engine.AllScenarios() {
			supported := bs[i].Server.Engine().Supports(q)
			_, _, err := router.Run(context.Background(), q, p)
			switch {
			case supported && err != nil:
				t.Errorf("%s %s: supported pair failed: %v", m.Key, q, err)
			case !supported && !errors.Is(err, engine.ErrUnsupported):
				t.Errorf("%s %s: unsupported pair returned %v, want ErrUnsupported", m.Key, q, err)
			}
		}
	}
	// The probe id: no engine supports it, no plan compiles for it.
	router, err := serve.NewRouter(backends(), serve.RouterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := router.Run(context.Background(), engine.QueryID(250), p); err == nil {
		t.Fatal("probe query id 250 was routed")
	}
}
