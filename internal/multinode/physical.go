package multinode

import (
	"context"
	"fmt"
	"time"

	"github.com/genbase/genbase/internal/cluster"
	"github.com/genbase/genbase/internal/distlinalg"
	"github.com/genbase/genbase/internal/engine"
	"github.com/genbase/genbase/internal/linalg"
	"github.com/genbase/genbase/internal/plan"
)

// exec is one query's physical executor: the engine's sixth-family
// plan.Physical implementation over distlinalg.DistMatrix shards, plus the
// plan.Timekeeper whose clock is the virtual cluster's makespan. It is
// created per Run with a fresh virtual cluster, so concurrent queries never
// share mutable state — the loaded shards and replicated metadata are
// read-only.
type exec struct {
	e        *Engine
	c        *cluster.Cluster
	replicas [][]int // shard → candidate nodes in failover order (first = primary)
}

func (e *Engine) newExec() *exec {
	cfg := cluster.DefaultConfig(e.nodes)
	cfg.Injector = e.injector
	cfg.ReplicationFactor = e.replication
	cfg.Now = e.now
	c := cluster.New(cfg)
	return &exec{e: e, c: c,
		replicas: distlinalg.ReplicaPlacement(e.shards, c.Nodes(), c.ReplicationFactor())}
}

// Now implements plan.Timekeeper: the query StopWatch reads the makespan.
func (x *exec) Now() time.Time { return makespanTime(x.c) }

// ExecLocal implements plan.Timekeeper: executor-resident steps (the shared
// TopKByAbs covariance summary) run on the coordinator's clock, as they did
// when the engines hand-coded them — failing the role over if the
// coordinator dies.
func (x *exec) ExecLocal(fn func() error) error { return x.c.ExecCoordinator(fn) }

// execShards runs fn once per shard through the fault-tolerant shard
// scheduler (distlinalg.RunShards): primaries first, failover to replicas
// when nodes die, straggler shards hedged. fn must write disjoint per-shard
// slots and be idempotent per shard (a failover re-execution rewrites the
// slot with the same bits).
func (x *exec) execShards(fn func(s int) error) error {
	return distlinalg.RunShards(context.Background(), x.c, x.replicas, fn)
}

// --- plan.Physical data management ---

// Name implements plan.Physical.
func (x *exec) Name() string { return x.e.kind.String() }

// Capabilities implements plan.Physical.
func (x *exec) Capabilities() plan.OpSet { return x.e.Capabilities() }

// Dims implements plan.Physical.
func (x *exec) Dims() (int, int) { return x.e.numPats, x.e.numGenes }

// SelectIDs implements plan.Physical. Patient predicates push down to the
// shards: every owner node scans its own patient range over the replicated
// metadata, so cohort selection runs node-local instead of gathering rows to
// the coordinator, and the concatenation of the ascending per-shard lists is
// the ascending global selection. Gene predicates scan the (tiny, replicated)
// gene metadata on the coordinator, as the pre-plan code did.
func (x *exec) SelectIDs(ctx context.Context, table string, preds []plan.Pred) ([]int64, error) {
	e := x.e
	switch table {
	case plan.TablePatients:
		cols := make([][]int64, len(preds))
		for i, p := range preds {
			switch p.Col {
			case plan.ColAge:
				cols[i] = e.age
			case plan.ColGender:
				cols[i] = e.gender
			case plan.ColDiseaseID:
				cols[i] = e.disease
			default:
				return nil, fmt.Errorf("multinode: no patients column %q", p.Col)
			}
		}
		pred := func(pid int) bool {
			for i, p := range preds {
				if !p.Eval(cols[i][pid]) {
					return false
				}
			}
			return true
		}
		locals := make([][]int64, e.shards)
		if err := x.execShards(func(s int) error {
			if err := engine.CheckCtx(ctx); err != nil {
				return err
			}
			locals[s] = e.localPatients(s, pred)
			return nil
		}); err != nil {
			return nil, err
		}
		var out []int64
		for _, l := range locals {
			out = append(out, l...)
		}
		return out, nil

	case plan.TableGenes:
		var out []int64
		for g, f := range e.function {
			ok := true
			for _, p := range preds {
				if p.Col != plan.ColFunction {
					return nil, fmt.Errorf("multinode: no genes column %q", p.Col)
				}
				if !p.Eval(f) {
					ok = false
					break
				}
			}
			if ok {
				out = append(out, int64(g))
			}
		}
		return out, nil

	default:
		return nil, fmt.Errorf("multinode: no physical select over table %q", table)
	}
}

// ScanFloats implements plan.Physical over the replicated drug-response
// vector; a cohort subset aligns with the given ids.
func (x *exec) ScanFloats(_ context.Context, table, col string, ids []int64) ([]float64, error) {
	if table != plan.TablePatients || col != plan.ColDrugResponse {
		return nil, fmt.Errorf("multinode: no physical scan for %s.%s", table, col)
	}
	if ids == nil {
		return x.e.drugResponse, nil
	}
	out := make([]float64, len(ids))
	for i, id := range ids {
		out[i] = x.e.drugResponse[id]
	}
	return out, nil
}

// Pivot implements plan.Physical: the selected patient ids split at the
// shard boundaries and every owner node pivots its shard locally (filter +
// restructure, concurrently across nodes when the host has spare cores); the
// row blocks wrap into a DistMatrix without any scatter, since the data was
// loaded partitioned.
func (x *exec) Pivot(ctx context.Context, patientIDs, geneIDs []int64) (*distlinalg.DistMatrix, error) {
	e := x.e
	genes := geneIDs
	if genes == nil {
		genes = allGeneIDs(e.numGenes)
	}
	var perShard [][]int64
	if patientIDs == nil {
		perShard = make([][]int64, e.shards)
		for s := range perShard {
			perShard[s] = e.localPatients(s, func(int) bool { return true })
		}
	} else {
		perShard = distlinalg.SplitIDsByBlock(e.starts, patientIDs)
	}
	parts := make([]*linalg.Matrix, e.shards)
	if err := x.execShards(func(s int) error {
		// Checked per shard so cancellation is honored between (or during
		// concurrent) per-shard pivots.
		if err := engine.CheckCtx(ctx); err != nil {
			return err
		}
		parts[s] = e.localPivot(s, perShard[s], genes)
		return nil
	}); err != nil {
		return nil, err
	}
	x.c.Barrier()
	return distlinalg.FromParts(x.c, parts), nil
}

// SampleMeans implements plan.Physical: per-shard partial sums over each
// shard's sampled patients (Q5's fused filter+aggregate), gathered to the
// coordinator and combined in shard order — bitwise identical at any node
// count.
func (x *exec) SampleMeans(ctx context.Context, step int) ([]float64, int, error) {
	e := x.e
	partials := make([][]float64, e.shards)
	if err := x.execShards(func(s int) error {
		if err := engine.CheckCtx(ctx); err != nil {
			return err
		}
		local := e.localPatients(s, func(pid int) bool { return pid%step == 0 })
		m := e.localPivot(s, local, allGeneIDs(e.numGenes))
		sums := make([]float64, e.numGenes)
		for r := 0; r < m.Rows; r++ {
			row := m.Row(r)
			for j, v := range row {
				sums[j] += v
			}
		}
		partials[s] = sums
		return nil
	}); err != nil {
		return nil, 0, err
	}
	x.c.Gather(x.c.Coordinator(), int64(e.numGenes)*8)
	sampled := (e.numPats + step - 1) / step
	var means []float64
	if err := x.c.ExecCoordinator(func() error {
		// Allocated inside so a coordinator failover re-execution stays
		// idempotent (the sums and the divide both restart from zero).
		means = make([]float64, e.numGenes)
		for _, part := range partials {
			for j, v := range part {
				means[j] += v
			}
		}
		for j := range means {
			means[j] /= float64(sampled)
		}
		return nil
	}); err != nil {
		return nil, 0, err
	}
	x.c.Barrier()
	return means, sampled, nil
}

// GOMembers implements plan.Physical: group the replicated GO membership by
// term on the coordinator.
func (x *exec) GOMembers(_ context.Context) ([][]int32, error) {
	e := x.e
	members := make([][]int32, e.numTerms)
	for g := 0; g < e.numGenes; g++ {
		row := e.goArr[g*e.numTerms : (g+1)*e.numTerms]
		for t, b := range row {
			if b == 1 {
				members[t] = append(members[t], int32(g))
			}
		}
	}
	return members, nil
}

// GeneMeta implements plan.Physical over the replicated function column.
func (x *exec) GeneMeta(_ context.Context) (engine.GeneMeta, error) {
	return funcLookup{x.e.function}, nil
}

// PhysicalName implements plan.Physical (delegating to the engine, which
// serves plan.Describer for explains without building a query executor).
func (x *exec) PhysicalName(k plan.OpKind) string { return x.e.PhysicalName(k) }

// PhysicalName implements plan.Describer: the partitioned physical
// implementations of this configuration.
func (e *Engine) PhysicalName(k plan.OpKind) string {
	colstoreKind := e.kind == ColstorePBDR || e.kind == ColstoreUDF
	switch k {
	case plan.OpSelectPred:
		return "shard-local scan over replicated metadata"
	case plan.OpScanTable:
		return "replicated metadata projection"
	case plan.OpSamplePatients:
		return "patient-id modulus"
	case plan.OpPivotMicro:
		if colstoreKind {
			return "per-shard selection-vector pivot to row blocks"
		}
		return "per-shard dense-block pivot to row blocks"
	case plan.OpKernelRegression, plan.OpKernelCovariance, plan.OpKernelSVD:
		switch e.kind {
		case ColstoreUDF:
			return "gather-to-coordinator UDF kernel"
		case SciDB:
			return "block-cyclic redistribute + distributed ScaLAPACK kernel"
		case SciDBPhi:
			return "block-cyclic redistribute + per-shard Phi-offloaded kernel"
		default:
			return "distributed ScaLAPACK kernel (per-shard partials + reduce)"
		}
	case plan.OpKernelBicluster:
		return "gather-to-coordinator Cheng-Church"
	case plan.OpKernelStats:
		return "per-shard sample aggregate + coordinator rank kernel"
	case plan.OpTopKByAbs:
		return "shared covariance summary on the coordinator"
	case plan.OpEmit:
		return "answer assembly"
	default:
		return "unsupported"
	}
}
