package distlinalg

import (
	"fmt"
	"math"
	"testing"
	"time"

	"github.com/genbase/genbase/internal/cluster"
	"github.com/genbase/genbase/internal/faults"
	"github.com/genbase/genbase/internal/linalg"
)

// virtualTimeRow is one exact virtual-time observation: the makespan after
// Distribute + op under a stepping clock, and the recovery counters the
// fault plan fired.
type virtualTimeRow struct {
	gram, cov                  uint64 // math.Float64bits of each makespan
	retries, failovers, hedges int64
}

// virtualTimeTable pins the virtual cluster's calibration: the network
// latency and bandwidth, the compute charge, and the retry, failover and
// hedge costs. Under a stepping clock every exec costs one tick, so each
// makespan is an exact function of placement, bytes sent and those
// constants; any change to one of them changes a row.
var virtualTimeTable = map[string]virtualTimeRow{
	"1n/fault-free":                   {gram: 0x3f747ae147ae147b, cov: 0x3f847ae147ae147c},
	"1n/flaky:0@0,flaky:0@1":          {gram: 0x3f80624dd2f1a9fc, cov: 0x3f8a9fbe76c8b43c, retries: 4},
	"2n/fault-free":                   {gram: 0x3f6abd1aa821f299, cov: 0x3f7a7cadfb7b60f4},
	"2n/crash:0@2,flaky:0@0,slow:1x8": {gram: 0x3fa303cdead9fe0e, cov: 0x3fb65556f4837516, retries: 2, failovers: 4, hedges: 4},
	"2n/slow:1x8":                     {gram: 0x3f7d3d27a8bb758d, cov: 0x3f8d29b17f3e7990, hedges: 6},
	"4n/fault-free":                   {gram: 0x3f628bf3bea91d9b, cov: 0x3f724b8712028bf6},
	"4n/crash:1@0,flaky:2@0,slow:3x8": {gram: 0x3f82f901083dbc24, cov: 0x3f91e2c0ffe4fd1b, retries: 2, failovers: 3, hedges: 3},
	"4n/slow:3x8":                     {gram: 0x3f70f36d4a863610, cov: 0x3f80dff721093a11, hedges: 3},
}

// faultPlan fires every recovery mechanism the node count allows: a retry
// everywhere, plus a failover and a straggler hedge once a second replica
// exists (replication 2).
func faultPlan(nodes int) *faults.Plan {
	switch nodes {
	case 1:
		// Two transient faults in a row: both retries, the backoff doubling.
		return faults.New().Flaky(0, 0).Flaky(0, 1)
	case 2:
		// Node 1 straggles, so its shards hedge onto node 0; node 0 retries
		// its first exec, then dies at its third and fails everything over.
		return faults.New().Flaky(0, 0).Crash(0, 2).Slow(1, 8)
	default:
		return faults.New().Flaky(2, 0).Crash(1, 0).Slow(nodes-1, 8)
	}
}

func TestVirtualTimeTable(t *testing.T) {
	const tick = time.Millisecond
	m := randMatrix(120, 20, 77)
	ref, err := func() (*linalg.Matrix, error) {
		_, d := dist(1, m)
		return d.Gram()
	}()
	if err != nil {
		t.Fatal(err)
	}
	refCov, err := func() (*linalg.Matrix, error) {
		_, d := dist(1, m)
		return d.Covariance()
	}()
	if err != nil {
		t.Fatal(err)
	}

	run := func(nodes int, plan *faults.Plan, op func(*DistMatrix) (*linalg.Matrix, error), want *linalg.Matrix) (float64, *cluster.Cluster) {
		t.Helper()
		cfg := cluster.DefaultConfig(nodes)
		now := time.Unix(0, 0)
		cfg.Now = func() time.Time {
			now = now.Add(tick)
			return now
		}
		if plan != nil {
			cfg.Injector = plan
			cfg.ReplicationFactor = 2
		}
		c := cluster.New(cfg)
		got, err := op(Distribute(c, m))
		if err != nil {
			t.Fatalf("%d nodes: %v", nodes, err)
		}
		if linalg.MaxAbsDiff(got, want) != 0 {
			t.Fatalf("%d nodes: answer diverges from the 1-node fault-free run", nodes)
		}
		return c.MakespanSeconds(), c
	}

	for _, nodes := range []int{1, 2, 4} {
		plans := []*faults.Plan{nil, faultPlan(nodes)}
		if nodes > 1 {
			// A straggler alone, so the hedge's own cost is on the critical
			// path (in the combined plan the failover's is).
			plans = append(plans, faults.New().Slow(nodes-1, 8))
		}
		for i, plan := range plans {
			name := fmt.Sprintf("%dn/fault-free", nodes)
			if plan != nil {
				name = fmt.Sprintf("%dn/%s", nodes, plan)
			}
			gram, cg := run(nodes, plan, (*DistMatrix).Gram, ref)
			cov, cc := run(nodes, plan, (*DistMatrix).Covariance, refCov)
			got := virtualTimeRow{
				gram: math.Float64bits(gram), cov: math.Float64bits(cov),
				retries:   cg.Retries.Load() + cc.Retries.Load(),
				failovers: cg.Failovers.Load() + cc.Failovers.Load(),
				hedges:    cg.Hedges.Load() + cc.Hedges.Load(),
			}
			if i == 1 && (got.retries == 0 || nodes > 1 && (got.failovers == 0 || got.hedges == 0)) {
				t.Errorf("%s: plan did not fire every recovery path: %+v", name, got)
			}
			if want, ok := virtualTimeTable[name]; !ok || got != want {
				t.Errorf("%s: got %#v (gram %v s, cov %v s), want %#v", name, got, gram, cov, want)
			}
		}
	}
}
