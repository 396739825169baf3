package multinode

import (
	"context"
	"math"

	"github.com/genbase/genbase/internal/bicluster"
	"github.com/genbase/genbase/internal/distlinalg"
	"github.com/genbase/genbase/internal/engine"
	"github.com/genbase/genbase/internal/linalg"
	"github.com/genbase/genbase/internal/xeonphi"
)

// The analytics kernel operators (plan.Physical over DistMatrix shards).
// Each configuration keeps its architectural signature from the hand-coded
// era: pbdR-backed kinds run ScaLAPACK-style distributed reductions, SciDB
// kinds pay the chunk→block-cyclic redistribution first, the UDF kind
// gathers to the coordinator (its analytics cannot scale with nodes), and
// SciDB+Phi offloads each shard's kernel to the coprocessor model. All
// reductions combine per-shard partials in shard order, so kernel answers
// are invariant to node count.

// interceptParts prepends an all-ones column to every shard of d.
func interceptParts(d *distlinalg.DistMatrix) *distlinalg.DistMatrix {
	parts := make([]*linalg.Matrix, len(d.Parts))
	for i, p := range d.Parts {
		parts[i] = linalg.AddInterceptColumn(p)
	}
	return distlinalg.FromParts(d.C, parts)
}

// redistribute charges SciDB's chunk→block-cyclic repartitioning before a
// ScaLAPACK call: an all-to-all exchange of the matrix. This is the data
// movement behind the paper's observation that "SciDB often has worse
// performance on two nodes than on one".
func (x *exec) redistribute(d *distlinalg.DistMatrix) {
	if x.c.Nodes() < 2 {
		return
	}
	total := int64(d.Rows()) * int64(d.Cols) * 8
	pairs := int64(x.c.Nodes()) * int64(x.c.Nodes())
	x.c.AllToAll(total / pairs)
}

// execKernel runs an analytics kernel for a shard, at host rate or on the
// owner node's coprocessor (SciDBPhi). Both paths measure the (idempotent)
// kernel with xeonphi.MeasureKernel so host/device speedup ratios are stable
// even for sub-millisecond kernels.
func (x *exec) execKernel(node int, kind string, inBytes, outBytes int64, fn func() error) error {
	if x.e.dev == nil {
		measured, err := xeonphi.MeasureKernel(fn)
		if err != nil {
			return err
		}
		x.c.Charge(node, measured)
		return nil
	}
	compute, transfer, err := x.e.dev.Offload(context.Background(), kind, inBytes, outBytes, fn)
	if err != nil {
		return err
	}
	x.c.Charge(node, compute+transfer)
	return nil
}

// shardKernelNode picks the node a shard's offloaded kernel runs on: the
// shard's primary while it lives, its first live replica (with the failover
// detection delay charged) after the primary dies. The kernel's bits do not
// depend on the node, so the failover changes only the virtual timing.
func (x *exec) shardKernelNode(d *distlinalg.DistMatrix, s int) (int, error) {
	node, err := d.LiveOwner(s)
	if err != nil {
		return -1, err
	}
	if node != d.Owners[s] {
		x.c.ChargeFailoverDetect(node)
	}
	return node, nil
}

// RunRegression implements plan.Physical. pbdR kinds solve distributed
// normal equations; SciDB kinds redistribute first; the UDF kind gathers and
// solves on the coordinator. Regression never offloads to the Phi (MKL
// auto-offload unsupported, §5.2).
func (x *exec) RunRegression(ctx context.Context, _ *engine.StopWatch, d *distlinalg.DistMatrix, y []float64) ([]float64, float64, error) {
	if err := engine.CheckCtx(ctx); err != nil {
		return nil, 0, err
	}
	x.markAnalytics()
	var fit *linalg.LeastSquaresResult
	var err error
	switch x.e.kind {
	case ColstoreUDF:
		// No distributed analytics runtime: gather to the coordinator and
		// call the UDF there. Analytics do not scale with nodes.
		xm, gerr := d.Gather()
		if gerr != nil {
			return nil, 0, gerr
		}
		err = x.c.ExecCoordinator(func() error {
			var kerr error
			fit, kerr = linalg.LeastSquaresP(linalg.AddInterceptColumn(xm), y, 1)
			return kerr
		})
	default:
		if x.e.kind == SciDB || x.e.kind == SciDBPhi {
			x.redistribute(d)
		}
		fit, err = interceptParts(d).LeastSquares(y)
	}
	if err != nil {
		return nil, 0, err
	}
	return fit.Coefficients, fit.RSquared, nil
}

// RunCovariance implements plan.Physical. The result gathers to the
// coordinator in every configuration — the shared TopKByAbs summary consumes
// it there (charged to the coordinator's clock via ExecLocal, attributed
// back to data management by the plan's phase tags, exactly as the
// hand-coded Q2 did).
func (x *exec) RunCovariance(ctx context.Context, _ *engine.StopWatch, d *distlinalg.DistMatrix) (*linalg.Matrix, error) {
	if err := engine.CheckCtx(ctx); err != nil {
		return nil, err
	}
	x.markAnalytics()
	var cov *linalg.Matrix
	var err error
	switch x.e.kind {
	case ColstoreUDF:
		xm, gerr := d.Gather()
		if gerr != nil {
			return nil, gerr
		}
		err = x.c.ExecCoordinator(func() error {
			// One worker: the coordinator models a single virtual node.
			cov = linalg.CovarianceP(xm, 1)
			return nil
		})
	default:
		if x.e.kind == SciDB || x.e.kind == SciDBPhi {
			x.redistribute(d)
		}
		if x.e.dev != nil {
			cov, err = x.phiCovariance(d)
		} else {
			cov, err = d.Covariance()
		}
	}
	if err != nil {
		return nil, err
	}
	return cov, nil
}

// phiCovariance mirrors distlinalg.Covariance but charges each shard's gram
// kernel at the device rate on its owner node (pdgemm auto-offload, §5.2).
func (x *exec) phiCovariance(d *distlinalg.DistMatrix) (*linalg.Matrix, error) {
	n := d.Rows()
	sums, err := d.ColumnSums()
	if err != nil {
		return nil, err
	}
	means := make([]float64, d.Cols)
	for j, s := range sums {
		means[j] = s / float64(n)
	}
	x.c.Broadcast(x.c.Coordinator(), int64(d.Cols)*8)
	x.c.Barrier()

	partials := make([]*linalg.Matrix, len(d.Parts))
	for i, part := range d.Parts {
		i, part := i, part
		node, err := x.shardKernelNode(d, i)
		if err != nil {
			return nil, err
		}
		inBytes := int64(part.Rows) * int64(part.Cols) * 8
		outBytes := int64(d.Cols) * int64(d.Cols) * 8
		err = x.execKernel(node, xeonphi.KindGEMM, inBytes, outBytes, func() error {
			centered := linalg.NewMatrix(part.Rows, part.Cols)
			for r := 0; r < part.Rows; r++ {
				src, dst := part.Row(r), centered.Row(r)
				for j, v := range src {
					dst[j] = v - means[j]
				}
			}
			partials[i] = linalg.MulATAP(centered, 1)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	x.c.Gather(x.c.Coordinator(), int64(d.Cols)*int64(d.Cols)*8)
	var cov *linalg.Matrix
	if err := x.c.ExecCoordinator(func() error {
		cov = linalg.NewMatrix(d.Cols, d.Cols)
		for _, p := range partials {
			cov.Add(cov, p)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	cov.Scale(1 / float64(n-1))
	x.c.Barrier()
	return cov, nil
}

// RunSVD implements plan.Physical.
func (x *exec) RunSVD(ctx context.Context, _ *engine.StopWatch, d *distlinalg.DistMatrix, k int, seed uint64) ([]float64, error) {
	if err := engine.CheckCtx(ctx); err != nil {
		return nil, err
	}
	x.markAnalytics()
	switch x.e.kind {
	case ColstoreUDF:
		a, gerr := d.Gather()
		if gerr != nil {
			return nil, gerr
		}
		var sv []float64
		err := x.c.ExecCoordinator(func() error {
			svd, kerr := linalg.TopKSVD(a, k, linalg.LanczosOptions{Reorthogonalize: true, Seed: seed, Workers: 1})
			if kerr != nil {
				return kerr
			}
			sv = svd.SingularValues
			return nil
		})
		if err != nil {
			return nil, err
		}
		return sv, nil
	default:
		if x.e.kind == SciDB || x.e.kind == SciDBPhi {
			x.redistribute(d)
		}
		if x.e.dev != nil {
			return x.phiSVD(d, k, seed)
		}
		return d.TopKSingularValues(k, seed)
	}
}

// phiSVD runs distributed Lanczos with each shard's local mat-vec offloaded
// to its owner node's coprocessor.
func (x *exec) phiSVD(d *distlinalg.DistMatrix, k int, seed uint64) ([]float64, error) {
	op := &phiATAOperator{x: x, d: d}
	eig, err := linalg.Lanczos(op, k, linalg.LanczosOptions{Reorthogonalize: true, Seed: seed})
	if op.err != nil {
		return nil, op.err
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

type phiATAOperator struct {
	x        *exec
	d        *distlinalg.DistMatrix
	resident bool // matrix shards already copied to the devices
	err      error
}

func (o *phiATAOperator) Dim() int { return o.d.Cols }

func (o *phiATAOperator) Apply(v []float64) []float64 {
	d := o.d
	z := make([]float64, d.Cols)
	if o.err != nil {
		return z
	}
	partials := make([][]float64, len(d.Parts))
	for i, part := range d.Parts {
		i, part := i, part
		node, err := o.x.shardKernelNode(d, i)
		if err != nil {
			o.err = err
			return z
		}
		// The shard transfers to device memory once and stays resident
		// across Lanczos iterations (as MKL automatic offload keeps it);
		// only the x and z vectors cross the PCIe link per iteration.
		inBytes := int64(d.Cols) * 8
		if !o.resident {
			inBytes += int64(part.Rows) * int64(part.Cols) * 8
		}
		if err := o.x.execKernel(node, xeonphi.KindLanczos, inBytes, int64(d.Cols)*8, func() error {
			local := make([]float64, d.Cols)
			for r := 0; r < part.Rows; r++ {
				row := part.Row(r)
				yi := linalg.Dot(row, v)
				linalg.Axpy(yi, row, local)
			}
			partials[i] = local
			return nil
		}); err != nil {
			o.err = err
			return z
		}
	}
	o.resident = true
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
		o.err = err
	}
	d.C.Barrier()
	return z
}

// RunBicluster implements plan.Physical. Biclustering does not distribute:
// every configuration gathers the filtered matrix to the coordinator (data
// management, as the hand-coded path attributed it — this is why Q3 shows no
// multi-node speedup) and runs the shared Cheng–Church kernel there.
func (x *exec) RunBicluster(ctx context.Context, _ *engine.StopWatch, d *distlinalg.DistMatrix, maxB int, seed uint64) ([]bicluster.Bicluster, error) {
	if err := engine.CheckCtx(ctx); err != nil {
		return nil, err
	}
	xm, gerr := d.Gather()
	if gerr != nil {
		return nil, gerr
	}
	x.markAnalytics()
	var blocks []bicluster.Bicluster
	inBytes := int64(xm.Rows) * int64(xm.Cols) * 8
	err := x.execKernel(x.c.Coordinator(), xeonphi.KindBicluster, inBytes, 4096, func() error {
		var kerr error
		blocks, kerr = bicluster.RunCtx(ctx, xm, bicluster.Options{MaxBiclusters: maxB, Seed: seed})
		return kerr
	})
	if err != nil {
		return nil, err
	}
	return blocks, nil
}

// RunStats implements plan.Physical: the per-shard sample aggregate already
// ran as data management (SampleMeans); the enrichment test is the
// coordinator's rank kernel.
func (x *exec) RunStats(ctx context.Context, _ *engine.StopWatch, means []float64, members [][]int32, sampled int) (*engine.StatsAnswer, error) {
	x.markAnalytics()
	var ans *engine.StatsAnswer
	inBytes := int64(x.e.numGenes)*8 + int64(len(x.e.goArr))
	err := x.execKernel(x.c.Coordinator(), xeonphi.KindRank, inBytes, int64(x.e.numTerms)*16, func() error {
		var kerr error
		ans, kerr = engine.EnrichmentTestP(ctx, means, members, sampled, 1)
		return kerr
	})
	if err != nil {
		return nil, err
	}
	return ans, nil
}
