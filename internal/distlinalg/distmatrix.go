// Package distlinalg is the ScaLAPACK/pbdR stand-in: matrices distributed
// by row blocks over the virtual cluster, with distributed Gram products,
// column statistics, mat-vec (for Lanczos), and least squares. Per-node
// compute is real executed Go, with the per-node partials of every reduction
// running concurrently through cluster.ExecAll when the host has spare cores
// (each node's kernel pinned to one worker so virtual-time calibration is
// unchanged); communication and synchronization are charged to the cluster's
// virtual clocks.
//
// # Shards versus nodes
//
// A DistMatrix is partitioned into numeric shards — contiguous row blocks
// whose count is fixed by the data layout, not by the cluster size — and each
// shard is placed on an owner node (contiguous groups, like SciDB chunks or a
// block-cyclic layout's blocks). Every reduction computes one partial per
// shard and combines partials in shard order on the coordinator, so the
// floating-point result is a pure function of the shard partition: adding or
// removing nodes moves shards between clocks but cannot change a single bit
// of any answer (DESIGN.md §13). Node count only shapes the virtual timing —
// per-node compute shrinks as shards spread out, communication does not.
package distlinalg

import (
	"context"
	"errors"
	"fmt"
	"math"

	"github.com/genbase/genbase/internal/cluster"
	"github.com/genbase/genbase/internal/engine"
	"github.com/genbase/genbase/internal/linalg"
)

// DefaultNumericShards is the default shard count: the paper's largest
// cluster (4 nodes), so the numerics at any node count coincide exactly with
// what the pre-plan per-node partitioning produced on the 4-node
// configuration. Scaling sweeps beyond 4 nodes raise the shard count
// explicitly (and accept the different — still deterministic — partition).
const DefaultNumericShards = 4

// ShardOwners places shards contiguous-first onto nodes: the same split rule
// cluster.Partition applies to rows, so at shards == nodes every shard sits
// on its own node. Extra nodes beyond the shard count stay idle — the
// chunk-limited parallelism real fixed-chunk stores exhibit.
func ShardOwners(shards, nodes int) []int {
	if nodes < 1 {
		nodes = 1
	}
	owners := make([]int, shards)
	per := shards / nodes
	rem := shards % nodes
	s := 0
	for n := 0; n < nodes && s < shards; n++ {
		take := per
		if n < rem {
			take++
		}
		for k := 0; k < take; k++ {
			owners[s] = n
			s++
		}
	}
	return owners
}

// SplitIDsByBlock partitions ascending global row ids by the shard
// boundaries: out[s] holds the ids in [starts[s], starts[s+1]). It is the
// shard-aware predicate pushdown helper — a selection over replicated
// metadata splits into per-shard id lists that each owner node pivots
// locally, instead of gathering rows to the coordinator.
func SplitIDsByBlock(starts []int, ids []int64) [][]int64 {
	shards := len(starts) - 1
	out := make([][]int64, shards)
	s := 0
	lo := 0
	for i, id := range ids {
		for s < shards-1 && id >= int64(starts[s+1]) {
			out[s] = ids[lo:i:i]
			lo = i
			s++
		}
	}
	out[s] = ids[lo:]
	return out
}

// DistMatrix is a dense matrix split into contiguous row blocks (numeric
// shards), each placed on an owner node. With a cluster ReplicationFactor
// above 1, each shard additionally lists replica nodes holding an identical
// copy; shard work fails over (or hedges) onto them without changing a bit
// of any answer, because every reduction is a pure function of the shard
// partition (see the package comment and DESIGN.md §14).
type DistMatrix struct {
	C      *cluster.Cluster
	Parts  []*linalg.Matrix // Parts[s] is shard s (may have 0 rows)
	Starts []int            // row offsets; Parts[s] covers [Starts[s], Starts[s+1])
	Owners []int            // Owners[s] is the node holding shard s
	// Replicas[s] lists the nodes holding shard s in failover preference
	// order; Replicas[s][0] == Owners[s]. Nil means unreplicated.
	Replicas [][]int
	Cols     int
}

// replicas returns the shard→candidate-nodes table, defaulting to the
// single-copy owner placement for matrices built before replication existed
// (struct-literal construction in tests).
func (d *DistMatrix) replicas() [][]int {
	if d.Replicas != nil {
		return d.Replicas
	}
	out := make([][]int, len(d.Owners))
	for s, o := range d.Owners {
		out[s] = []int{o}
	}
	return out
}

// Distribute scatters m from the coordinator (node 0) into
// DefaultNumericShards row blocks placed contiguously over the nodes,
// charging the scatter communication.
func Distribute(c *cluster.Cluster, m *linalg.Matrix) *DistMatrix {
	starts := partitionRows(m.Rows, DefaultNumericShards)
	shards := len(starts) - 1
	d := &DistMatrix{C: c, Starts: starts, Cols: m.Cols,
		Owners:   ShardOwners(shards, c.Nodes()),
		Replicas: ReplicaPlacement(shards, c.Nodes(), c.ReplicationFactor())}
	for s := 0; s+1 < len(starts); s++ {
		rows := starts[s+1] - starts[s]
		part := linalg.NewMatrix(rows, m.Cols)
		for r := 0; r < rows; r++ {
			copy(part.Row(r), m.Row(starts[s]+r))
		}
		d.Parts = append(d.Parts, part)
		for _, o := range d.Replicas[s] {
			if o != 0 {
				c.Send(0, o, int64(rows)*int64(m.Cols)*8)
			}
		}
	}
	c.Barrier()
	return d
}

// partitionRows splits n rows into the given number of contiguous blocks
// (cluster.Partition's rule, independent of any cluster).
func partitionRows(n, blocks int) []int {
	if blocks < 1 {
		blocks = 1
	}
	starts := make([]int, blocks+1)
	per := n / blocks
	rem := n % blocks
	pos := 0
	for i := 0; i < blocks; i++ {
		starts[i] = pos
		pos += per
		if i < rem {
			pos++
		}
	}
	starts[blocks] = n
	return starts
}

// PartitionRows exposes the shard split rule (Load-time partitioning in the
// multi-node engines uses it so their shard boundaries match FromParts').
func PartitionRows(n, shards int) []int { return partitionRows(n, shards) }

// FromParts wraps already-partitioned shards (data that was loaded
// partitioned, so no scatter cost — pbdR's "we evenly partitioned the data
// between nodes"), placing them contiguously over the cluster's nodes.
// Replica copies count as loaded alongside the primaries (load-time
// replication, like HDFS block placement), so they carry no scatter cost
// either.
func FromParts(c *cluster.Cluster, parts []*linalg.Matrix) *DistMatrix {
	d := &DistMatrix{C: c, Cols: 0,
		Owners:   ShardOwners(len(parts), c.Nodes()),
		Replicas: ReplicaPlacement(len(parts), c.Nodes(), c.ReplicationFactor())}
	starts := make([]int, len(parts)+1)
	for i, p := range parts {
		starts[i+1] = starts[i] + p.Rows
		if p.Cols > d.Cols {
			d.Cols = p.Cols
		}
	}
	d.Parts = parts
	d.Starts = starts
	return d
}

// Rows is the global row count.
func (d *DistMatrix) Rows() int { return d.Starts[len(d.Starts)-1] }

// execParts runs fn once per shard through the fault-tolerant shard
// scheduler: each shard runs on its primary, failing over to replicas when
// nodes die and hedging off stragglers (RunShards). Callers must make the
// shard closures independent AND idempotent — they write disjoint per-shard
// slots, so a failover re-execution rewrites the same slot with the same
// bits — which also keeps results identical on the serial and concurrent
// paths.
func (d *DistMatrix) execParts(fn func(s int) error) error {
	return RunShards(context.Background(), d.C, d.replicas(), fn)
}

// LiveOwner returns the first live node holding shard s — its primary when
// healthy, the failover read path otherwise. A shard with no live copy left
// returns a typed engine.ErrReplicasExhausted.
func (d *DistMatrix) LiveOwner(s int) (int, error) {
	for _, o := range d.replicas()[s] {
		if !d.C.IsDead(o) {
			return o, nil
		}
	}
	return -1, fmt.Errorf("distlinalg: shard %d: no live replica: %w",
		s, engine.ErrReplicasExhausted)
}

// Gather collects all shards on the coordinator and returns the full matrix
// (used when an algorithm does not distribute, e.g. biclustering). Row
// concatenation is shard-order, so the gathered matrix is identical at any
// node count and under any failover (each shard is sent from its first live
// replica). A shard with no live replica fails the gather with a typed
// engine.ErrReplicasExhausted.
func (d *DistMatrix) Gather() (*linalg.Matrix, error) {
	root := d.C.Coordinator()
	m := linalg.NewMatrix(d.Rows(), d.Cols)
	for s, part := range d.Parts {
		src, err := d.LiveOwner(s)
		if err != nil {
			return nil, err
		}
		if src != root {
			d.C.Send(src, root, int64(part.Rows)*int64(part.Cols)*8)
		}
		for r := 0; r < part.Rows; r++ {
			copy(m.Row(d.Starts[s]+r), part.Row(r))
		}
	}
	d.C.Barrier()
	return m, nil
}

// ColumnSums computes per-column sums with one partial per shard (computed
// concurrently across owner nodes when the host has spare cores) and a
// shard-order reduction on the coordinator.
func (d *DistMatrix) ColumnSums() ([]float64, error) {
	partials := make([][]float64, len(d.Parts))
	if err := d.execParts(func(s int) error {
		part := d.Parts[s]
		sums := make([]float64, d.Cols)
		for r := 0; r < part.Rows; r++ {
			row := part.Row(r)
			for j, v := range row {
				sums[j] += v
			}
		}
		partials[s] = sums
		return nil
	}); err != nil {
		return nil, err
	}
	d.C.Gather(d.C.Coordinator(), int64(d.Cols)*8)
	var total []float64
	err := d.C.ExecCoordinator(func() error {
		total = make([]float64, d.Cols)
		for _, p := range partials {
			for j, v := range p {
				total[j] += v
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	d.C.Barrier()
	return total, nil
}

// Gram computes XᵀX with per-shard partial Gram matrices reduced on the
// coordinator — ScaLAPACK's pdsyrk pattern.
func (d *DistMatrix) Gram() (*linalg.Matrix, error) {
	return d.gramCentered(nil)
}

// CenteredGram computes (X−mean)ᵀ(X−mean) given column means.
func (d *DistMatrix) CenteredGram(means []float64) (*linalg.Matrix, error) {
	return d.gramCentered(means)
}

func (d *DistMatrix) gramCentered(means []float64) (*linalg.Matrix, error) {
	// Per-shard partial Grams run concurrently across owner nodes (the
	// host-level parallelism the shared pool provides); each shard's kernel is
	// pinned to one worker so its measured duration still models a single
	// virtual node's core.
	partials := make([]*linalg.Matrix, len(d.Parts))
	if err := d.execParts(func(s int) error {
		part := d.Parts[s]
		if means == nil {
			partials[s] = linalg.MulATAP(part, 1)
			return nil
		}
		centered := linalg.NewMatrix(part.Rows, part.Cols)
		for r := 0; r < part.Rows; r++ {
			src, dst := part.Row(r), centered.Row(r)
			for j, v := range src {
				dst[j] = v - means[j]
			}
		}
		partials[s] = linalg.MulATAP(centered, 1)
		return nil
	}); err != nil {
		return nil, err
	}
	d.C.Gather(d.C.Coordinator(), int64(d.Cols)*int64(d.Cols)*8)
	var gram *linalg.Matrix
	err := d.C.ExecCoordinator(func() error {
		gram = linalg.NewMatrix(d.Cols, d.Cols)
		for _, p := range partials {
			gram.Add(gram, p)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	d.C.Barrier()
	return gram, nil
}

// Covariance computes the distributed sample covariance of the columns.
func (d *DistMatrix) Covariance() (*linalg.Matrix, error) {
	n := d.Rows()
	if n < 2 {
		return linalg.NewMatrix(d.Cols, d.Cols), nil
	}
	sums, err := d.ColumnSums()
	if err != nil {
		return nil, err
	}
	means := make([]float64, d.Cols)
	for j, s := range sums {
		means[j] = s / float64(n)
	}
	d.C.Broadcast(d.C.Coordinator(), int64(d.Cols)*8)
	d.C.Barrier()
	cov, err := d.CenteredGram(means)
	if err != nil {
		return nil, err
	}
	cov.Scale(1 / float64(n-1))
	return cov, nil
}

// XtY computes Xᵀy with per-shard partials; y is indexed by global row.
func (d *DistMatrix) XtY(y []float64) ([]float64, error) {
	if len(y) != d.Rows() {
		return nil, errors.New("distlinalg: XtY length mismatch")
	}
	partials := make([][]float64, len(d.Parts))
	if err := d.execParts(func(s int) error {
		part := d.Parts[s]
		sums := make([]float64, d.Cols)
		for r := 0; r < part.Rows; r++ {
			linalg.Axpy(y[d.Starts[s]+r], part.Row(r), sums)
		}
		partials[s] = sums
		return nil
	}); err != nil {
		return nil, err
	}
	d.C.Gather(d.C.Coordinator(), int64(d.Cols)*8)
	var total []float64
	err := d.C.ExecCoordinator(func() error {
		total = make([]float64, d.Cols)
		for _, p := range partials {
			for j, v := range p {
				total[j] += v
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	d.C.Barrier()
	return total, nil
}

// LeastSquares solves min ‖Xβ − y‖ via the distributed normal equations
// (Gram + XtY reduced to the coordinator, small solve there) and reports
// R² from a distributed residual pass.
func (d *DistMatrix) LeastSquares(y []float64) (*linalg.LeastSquaresResult, error) {
	gram, err := d.Gram()
	if err != nil {
		return nil, err
	}
	aty, err := d.XtY(y)
	if err != nil {
		return nil, err
	}
	var beta []float64
	err = d.C.ExecCoordinator(func() error {
		qr, qerr := linalg.NewQRP(gram, 1)
		if qerr != nil {
			return qerr
		}
		beta, qerr = qr.Solve(aty)
		return qerr
	})
	if err != nil {
		return nil, err
	}
	d.C.Broadcast(d.C.Coordinator(), int64(len(beta))*8)
	d.C.Barrier()

	// Distributed residual pass, one partial per shard, shard-order sum.
	ssParts := make([]float64, len(d.Parts))
	if err := d.execParts(func(s int) error {
		part := d.Parts[s]
		ss := 0.0
		for r := 0; r < part.Rows; r++ {
			pred := linalg.Dot(part.Row(r), beta)
			diff := y[d.Starts[s]+r] - pred
			ss += diff * diff
		}
		ssParts[s] = ss
		return nil
	}); err != nil {
		return nil, err
	}
	d.C.Gather(d.C.Coordinator(), 8)
	ssRes := 0.0
	for _, v := range ssParts {
		ssRes += v
	}
	my := linalg.Mean(y)
	ssTot := 0.0
	for _, v := range y {
		ssTot += (v - my) * (v - my)
	}
	r2 := 0.0
	if ssTot > 0 {
		r2 = 1 - ssRes/ssTot
	}
	d.C.Barrier()
	return &linalg.LeastSquaresResult{Coefficients: beta, Residual: math.Sqrt(ssRes), RSquared: r2}, nil
}

// ATAOperator is the distributed Lanczos operator: each iteration does local
// y = A_s·x and z_s = A_sᵀ·y per shard, then an all-reduce of the z partials
// — the communication pattern that limits multi-node SVD scaling (Figure 3c).
type ATAOperator struct {
	D   *DistMatrix
	Err error
}

// Dim implements linalg.LinearOperator.
func (o *ATAOperator) Dim() int { return o.D.Cols }

// Apply implements linalg.LinearOperator.
func (o *ATAOperator) Apply(x []float64) []float64 {
	d := o.D
	z := make([]float64, d.Cols)
	if o.Err != nil {
		return z
	}
	partials := make([][]float64, len(d.Parts))
	if err := d.execParts(func(s int) error {
		part := d.Parts[s]
		local := make([]float64, d.Cols)
		for r := 0; r < part.Rows; r++ {
			row := part.Row(r)
			yi := linalg.Dot(row, x)
			linalg.Axpy(yi, row, local)
		}
		partials[s] = local
		return nil
	}); err != nil {
		o.Err = err
		return z
	}
	d.C.AllReduce(int64(d.Cols) * 8)
	if err := d.C.ExecCoordinator(func() error {
		// Re-zero so a coordinator failover re-execution stays idempotent.
		for j := range z {
			z[j] = 0
		}
		for _, p := range partials {
			for j, v := range p {
				z[j] += v
			}
		}
		return nil
	}); err != nil {
		o.Err = err
	}
	d.C.Barrier()
	return z
}

// TopKSingularValues runs distributed Lanczos and returns the k largest
// singular values of the distributed matrix.
func (d *DistMatrix) TopKSingularValues(k int, seed uint64) ([]float64, error) {
	op := &ATAOperator{D: d}
	eig, err := linalg.Lanczos(op, k, linalg.LanczosOptions{Reorthogonalize: true, Seed: seed})
	if op.Err != nil {
		return nil, op.Err
	}
	if err != nil {
		return nil, err
	}
	sv := make([]float64, len(eig.Values))
	for i, lam := range eig.Values {
		if lam < 0 {
			lam = 0
		}
		sv[i] = math.Sqrt(lam)
	}
	return sv, nil
}
