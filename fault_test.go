package genbase

// Fault-drill acceptance tests (DESIGN.md §14): with shard replication 2,
// every virtual-cluster configuration answers every query bit-for-bit
// identically to the committed goldens under any single-node crash schedule,
// straggler injection, and transient faults — recovery may only change the
// virtual clocks, never an answer. Run with -race this doubles as the data
// race check for the failover/hedging scheduler.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"testing"

	"github.com/genbase/genbase/internal/datagen"
	"github.com/genbase/genbase/internal/engine"
	"github.com/genbase/genbase/internal/faults"
	"github.com/genbase/genbase/internal/multinode"
)

const faultNodes = 4 // the paper's largest cluster: every node owns a shard

// faultPlans is the schedule sweep: every single-node crash at the first and
// a mid-query exec step, a straggler at the hedge threshold, a transient
// fault, and a seeded compound drill.
func faultPlans(t *testing.T) map[string]*faults.Plan {
	t.Helper()
	plans := make(map[string]*faults.Plan)
	for n := 0; n < faultNodes; n++ {
		for _, step := range []int{0, 2} {
			spec := fmt.Sprintf("crash:%d@%d", n, step)
			p, err := faults.Parse(spec)
			if err != nil {
				t.Fatal(err)
			}
			plans[spec] = p
		}
	}
	plans["slow:1x8"] = faults.New().Slow(1, 8)
	plans["flaky:2@1"] = faults.New().Flaky(2, 1)
	plans["seeded"] = faults.Seeded(faultNodes, 7)
	return plans
}

func readGoldenHashes(t *testing.T) map[string]string {
	t.Helper()
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read goldens: %v", err)
	}
	want := make(map[string]string)
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestFaultGoldenInvariance is the tentpole acceptance gate: for every
// multi-node configuration, queries executed under every fault schedule with
// replication 2 hash bit-for-bit to the same goldens the fault-free engines
// produce. The full schedule sweep runs the three fast queries; the compound
// seeded drill additionally covers every supported query (biclustering and
// SVD included) on two representative configurations.
func TestFaultGoldenInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("fault golden sweep is not short")
	}
	ds, err := datagen.Generate(datagen.Config{Size: datagen.Small, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	p := engine.DefaultParams()
	want := readGoldenHashes(t)
	fastQueries := []engine.QueryID{engine.Q1Regression, engine.Q2Covariance, engine.Q5Statistics}

	runUnderPlan := func(t *testing.T, kind multinode.Kind, plan *faults.Plan, queries []engine.QueryID) {
		t.Helper()
		eng := multinode.New(kind, faultNodes)
		defer eng.Close()
		eng.SetReplication(2)
		eng.SetFaults(plan)
		if err := eng.Load(ds); err != nil {
			t.Fatal(err)
		}
		for _, q := range queries {
			if !eng.Supports(q) {
				continue
			}
			res, err := eng.Run(context.Background(), q, p)
			if err != nil {
				t.Fatalf("%s under %q: %v", q, plan, err)
			}
			key := goldenClusterKey(kind.String(), faultNodes, q)
			wantHash, ok := want[key]
			if !ok {
				t.Fatalf("no golden for %s", key)
			}
			if got := goldenAnswerHash(t, res.Answer); got != wantHash {
				t.Errorf("%s under %q: answer diverges from the fault-free golden", key, plan)
			}
		}
	}

	for _, kind := range multinode.AllKinds() {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			for name, plan := range faultPlans(t) {
				runUnderPlan(t, kind, plan, fastQueries)
				_ = name
			}
		})
	}
	// Full query coverage (biclustering, SVD) under the compound drill on the
	// two paths with the most distinct shard traffic.
	for _, kind := range []multinode.Kind{multinode.PBDR, multinode.SciDB} {
		kind := kind
		t.Run(kind.String()+"/all-queries", func(t *testing.T) {
			runUnderPlan(t, kind, faults.Seeded(faultNodes, 7), engine.AllQueries())
		})
	}
}

// TestFaultRecoveryObservable pins the degradation signal: a crash schedule
// under replication 2 completes, flags the result Degraded, and counts its
// failovers on the cluster — while a healthy run stays clean.
func TestFaultRecoveryObservable(t *testing.T) {
	ds, err := datagen.Generate(datagen.Config{Size: datagen.Small, Scale: 0.4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	p := engine.DefaultParams()

	eng := multinode.New(multinode.PBDR, faultNodes)
	defer eng.Close()
	eng.SetReplication(2)
	if err := eng.Load(ds); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(context.Background(), engine.Q2Covariance, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded {
		t.Fatal("healthy run reported Degraded")
	}

	eng.SetFaults(faults.New().Crash(1, 0))
	res, err = eng.Run(context.Background(), engine.Q2Covariance, p)
	if err != nil {
		t.Fatalf("crash schedule with replication 2 must complete: %v", err)
	}
	if !res.Degraded {
		t.Fatal("failed-over run not reported Degraded")
	}
	if got := eng.Cluster().Failovers.Load(); got == 0 {
		t.Fatal("no failovers counted for a crash schedule that must re-home shards")
	}
}

// TestFaultReplicasExhaustedTyped pins the partial-failure taxonomy: without
// replication a crash is a typed hard failure, and with every node crashed
// even replication 2 fails with ErrReplicasExhausted.
func TestFaultReplicasExhaustedTyped(t *testing.T) {
	ds, err := datagen.Generate(datagen.Config{Size: datagen.Small, Scale: 0.4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	p := engine.DefaultParams()

	eng := multinode.New(multinode.PBDR, faultNodes)
	defer eng.Close()
	eng.SetReplication(1)
	eng.SetFaults(faults.New().Crash(1, 0))
	if err := eng.Load(ds); err != nil {
		t.Fatal(err)
	}
	_, err = eng.Run(context.Background(), engine.Q2Covariance, p)
	if err == nil {
		t.Fatal("unreplicated run survived a node crash")
	}
	if !errors.Is(err, engine.ErrReplicasExhausted) && !errors.Is(err, engine.ErrNodeFailed) {
		t.Fatalf("got %v, want a typed partial-failure error", err)
	}

	all := faults.New()
	for n := 0; n < faultNodes; n++ {
		all.Crash(n, 0)
	}
	eng2 := multinode.New(multinode.PBDR, faultNodes)
	defer eng2.Close()
	eng2.SetReplication(2)
	eng2.SetFaults(all)
	if err := eng2.Load(ds); err != nil {
		t.Fatal(err)
	}
	_, err = eng2.Run(context.Background(), engine.Q2Covariance, p)
	if !errors.Is(err, engine.ErrReplicasExhausted) {
		t.Fatalf("got %v, want ErrReplicasExhausted with every node dead", err)
	}
}
