// Package multinode implements the paper's multi-node configurations
// (§4.2, Figures 3–4): pbdR, column store + pbdR, column store + UDFs,
// SciDB, SciDB + Xeon Phi, and Hadoop, each running over the virtual
// cluster. Data is partitioned by patient into fixed numeric shards (row
// blocks) at load time; each query places the shards onto that run's virtual
// nodes, runs data management shard-local, and runs analytics through the
// distributed linear algebra layer (ScaLAPACK analog) or, where a
// configuration lacks one, by gathering to the coordinator. Reported timings
// are virtual makespans (see internal/cluster).
//
// Since the plan layer's sixth family landed here, the engines contain no
// query code: they register partitioned physical operators (plan.Physical
// over distlinalg.DistMatrix shards) and the generic executor in
// internal/plan drives every query — including planner-only scenarios like
// Q6 — from the same compiled IR the single-node engines execute.
//
// Because the shard partition is fixed (distlinalg.DefaultNumericShards)
// and every reduction combines per-shard partials in shard order, answers
// are bitwise identical at any node count; node count only moves shards
// between virtual clocks (DESIGN.md §13). Each query runs on its own
// virtual cluster, so the engines satisfy the engine.Engine concurrency
// contract and can be served concurrently through internal/serve.
package multinode

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"github.com/genbase/genbase/internal/cluster"
	"github.com/genbase/genbase/internal/colstore"
	"github.com/genbase/genbase/internal/datagen"
	"github.com/genbase/genbase/internal/distlinalg"
	"github.com/genbase/genbase/internal/engine"
	"github.com/genbase/genbase/internal/linalg"
	"github.com/genbase/genbase/internal/plan"
)

// Kind names a multi-node configuration.
type Kind int

// The multi-node systems of Figures 3–5.
const (
	PBDR Kind = iota
	ColstorePBDR
	ColstoreUDF
	SciDB
	SciDBPhi
)

func (k Kind) String() string {
	switch k {
	case PBDR:
		return "pbdr"
	case ColstorePBDR:
		return "colstore-pbdr"
	case ColstoreUDF:
		return "colstore-udf"
	case SciDB:
		return "scidb"
	case SciDBPhi:
		return "scidb-phi"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// AllKinds lists the five virtual-cluster configurations.
func AllKinds() []Kind { return []Kind{PBDR, ColstorePBDR, ColstoreUDF, SciDB, SciDBPhi} }

// Engine is a multi-node system under test. Loaded state is read-only after
// Load; every Run executes on its own virtual cluster, so concurrent queries
// are safe (DESIGN.md §11, §13).
type Engine struct {
	kind   Kind
	nodes  int
	shards int // numeric shard count (distlinalg.DefaultNumericShards)

	// Row-partitioned expression data: shard s owns patients
	// [starts[s], starts[s+1]).
	starts []int
	blocks []*linalg.Matrix  // dense shard blocks (pbdr, scidb kinds)
	cols   []*colstore.Table // per-shard micro columns (colstore kinds)

	// Replicated small metadata (each node has a copy, as pbdR does).
	age, gender, disease []int64
	drugResponse         []float64
	function             []int64
	goArr                []uint8

	numPats, numGenes, numTerms int

	// Fault drill configuration (set before serving; read-only during Runs).
	injector    cluster.Injector // deterministic fault plan (nil = fault-free)
	replication int              // shard replication factor (0/1 = none)

	// now times each Run's execs and kernels (cluster.Config.Now; nil =
	// wall clock). Package tests install a stepping clock to make virtual
	// time exact.
	now func() time.Time

	// lastC is the virtual cluster of the most recently completed Run, kept
	// for tests that inspect its traffic and fault-recovery stats.
	lastC atomic.Pointer[cluster.Cluster]
}

// New creates a multi-node engine with the given cluster size and the
// default numeric shard count.
func New(kind Kind, nodes int) *Engine {
	if nodes < 1 {
		nodes = 1
	}
	return &Engine{kind: kind, nodes: nodes, shards: distlinalg.DefaultNumericShards}
}

// Nodes returns the configured cluster size.
func (e *Engine) Nodes() int { return e.nodes }

// SetFaults installs a deterministic fault injector (internal/faults.Plan)
// consulted by every subsequent Run's virtual cluster. Nil restores
// fault-free execution. Call before serving begins: the field is read-only
// during Runs, matching the engine concurrency contract.
// Test seam: the root package's fault drills (fault_test.go) and serve's
// TestDistServeConcurrentMatchesSerial.
func (e *Engine) SetFaults(inj cluster.Injector) { e.injector = inj }

// SetReplication sets the shard replication factor for subsequent Runs
// (clamped to the node count by the cluster; ≤1 disables replication). With
// a factor of 2 every single-node crash schedule leaves each shard a live
// replica, so fault drills complete with bitwise-identical answers.
// Test seam: the root package's fault drills (fault_test.go) and serve's
// TestDistServeConcurrentMatchesSerial.
func (e *Engine) SetReplication(factor int) { e.replication = factor }

// Cluster exposes the virtual cluster of the most recent completed Run (for
// traffic and fault-recovery assertions). Before any Run it returns an idle
// cluster of the configured size.
// Test seam: the root package's TestFaultRecoveryObservable.
func (e *Engine) Cluster() *cluster.Cluster {
	if c := e.lastC.Load(); c != nil {
		return c
	}
	return cluster.New(cluster.DefaultConfig(e.nodes))
}

// Name implements engine.Engine.
func (e *Engine) Name() string { return e.kind.String() }

// Capabilities implements plan.Describer: every virtual-cluster
// configuration registers the full operator vocabulary — distributed kernels
// where the configuration has a distributed runtime, gather-to-coordinator
// fallbacks where it does not — so Supports is derived, not hardcoded, and
// planner-only scenarios run here with zero engine code.
func (e *Engine) Capabilities() plan.OpSet { return plan.AllOps() }

// Supports implements engine.Engine, derived from the registered physical
// operators exactly like the single-node engines.
func (e *Engine) Supports(q engine.QueryID) bool { return plan.Supports(e.Capabilities(), q) }

// Close implements engine.Engine.
func (e *Engine) Close() error { return nil }

// Load implements engine.Engine: partitions by patient into the numeric
// shards, replicates metadata.
func (e *Engine) Load(ds *datagen.Dataset) error {
	p, g := ds.Dims.Patients, ds.Dims.Genes
	e.starts = distlinalg.PartitionRows(p, e.shards)
	e.numPats, e.numGenes, e.numTerms = p, g, ds.Dims.GOTerms

	switch e.kind {
	case ColstorePBDR, ColstoreUDF:
		e.cols = nil
		for s := 0; s < e.shards; s++ {
			lo, hi := e.starts[s], e.starts[s+1]
			rows := (hi - lo) * g
			geneCol := make([]int64, 0, rows)
			patCol := make([]int64, 0, rows)
			valCol := make([]float64, 0, rows)
			for pi := lo; pi < hi; pi++ {
				row := ds.Expression.Row(pi)
				for gi, v := range row {
					geneCol = append(geneCol, int64(gi))
					patCol = append(patCol, int64(pi))
					valCol = append(valCol, v)
				}
			}
			t := colstore.NewTable(fmt.Sprintf("micro-%d", s), rows).
				AddInt("geneid", geneCol).AddInt("patientid", patCol).AddFloat("value", valCol)
			e.cols = append(e.cols, t)
		}
	default:
		e.blocks = nil
		for s := 0; s < e.shards; s++ {
			lo, hi := e.starts[s], e.starts[s+1]
			blk := linalg.NewMatrix(hi-lo, g)
			for pi := lo; pi < hi; pi++ {
				copy(blk.Row(pi-lo), ds.Expression.Row(pi))
			}
			e.blocks = append(e.blocks, blk)
		}
	}

	e.age = make([]int64, p)
	e.gender = make([]int64, p)
	e.disease = make([]int64, p)
	e.drugResponse = make([]float64, p)
	for i, pt := range ds.Patients {
		e.age[i] = int64(pt.Age)
		e.gender[i] = int64(pt.Gender)
		e.disease[i] = int64(pt.DiseaseID)
		e.drugResponse[i] = pt.DrugResponse
	}
	e.function = make([]int64, g)
	for i, gn := range ds.Genes {
		e.function[i] = int64(gn.Function)
	}
	e.goArr = make([]uint8, len(ds.GO))
	copy(e.goArr, ds.GO)
	return nil
}

// Run implements engine.Engine: compile the query into the shared operator
// IR and execute it against this configuration's partitioned physical
// operators on a fresh per-query virtual cluster. Timing is the virtual
// makespan, split by the query StopWatch reading it.
func (e *Engine) Run(ctx context.Context, q engine.QueryID, p engine.Params) (*engine.Result, error) {
	if e.starts == nil {
		return nil, fmt.Errorf("multinode: not loaded")
	}
	pl, err := plan.Compile(q, p)
	if err != nil {
		return nil, err
	}
	x := e.newExec()
	res, err := plan.Execute[*distlinalg.DistMatrix](ctx, x, pl)
	e.lastC.Store(x.c)
	if res != nil {
		res.Degraded = x.c.Degraded()
	}
	return res, err
}

// makespanTime reads c's makespan as a time, the clock a query StopWatch
// reads on a virtual cluster. Each reading truncates to whole nanoseconds.
func makespanTime(c *cluster.Cluster) time.Time {
	return time.Time{}.Add(time.Duration(c.MakespanSeconds() * 1e9))
}

// --- shard-local data management (per shard, executed under the owner
// node's virtual clock) ---

// localPivot extracts the shard's block restricted to the given global
// patients (within the shard's range) and gene columns.
func (e *Engine) localPivot(shard int, patients []int64, genes []int64) *linalg.Matrix {
	lo := e.starts[shard]
	if e.cols != nil {
		// Column-store path: selection vectors over compressed columns.
		t := e.cols[shard]
		patIdx := make(map[int64]int, len(patients))
		for i, id := range patients {
			patIdx[id] = i
		}
		geneIdx := make([]int32, e.numGenes)
		for i := range geneIdx {
			geneIdx[i] = -1
		}
		for i, id := range genes {
			geneIdx[id] = int32(i)
		}
		sel := t.Int("patientid").Select(func(v int64) bool { _, ok := patIdx[v]; return ok }, nil)
		if len(genes) < e.numGenes {
			sel = t.Int("geneid").SelectRefine(func(v int64) bool { return geneIdx[v] >= 0 }, sel)
		}
		m := linalg.NewMatrix(len(patients), len(genes))
		gc, pc := t.Int("geneid"), t.Int("patientid")
		vals := t.Float("value")
		for _, i := range sel {
			pi := patIdx[pc.At(int(i))]
			gi := geneIdx[gc.At(int(i))]
			m.Set(pi, int(gi), vals[i])
		}
		return m
	}
	// Dense-block path (pbdR data frames / SciDB subarray).
	blk := e.blocks[shard]
	m := linalg.NewMatrix(len(patients), len(genes))
	for k, pid := range patients {
		src := blk.Row(int(pid) - lo)
		dst := m.Row(k)
		for j, g := range genes {
			dst[j] = src[g]
		}
	}
	return m
}

// localPatients returns the shard's patients passing pred, ascending.
func (e *Engine) localPatients(shard int, pred func(pid int) bool) []int64 {
	var out []int64
	for pid := e.starts[shard]; pid < e.starts[shard+1]; pid++ {
		if pred(pid) {
			out = append(out, int64(pid))
		}
	}
	return out
}

func allGeneIDs(n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i)
	}
	return out
}

type funcLookup struct{ fns []int64 }

func (f funcLookup) FunctionOf(g int) int64 { return f.fns[g] }
