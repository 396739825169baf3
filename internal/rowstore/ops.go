package rowstore

import (
	"context"
	"fmt"

	"github.com/genbase/genbase/internal/analytics"
	"github.com/genbase/genbase/internal/bicluster"
	"github.com/genbase/genbase/internal/engine"
	"github.com/genbase/genbase/internal/linalg"
	planir "github.com/genbase/genbase/internal/plan"
)

// The row store's physical operators (plan.Physical): selections and full
// scans read the compressed columnar sidecars of the heap tables, selective
// pivots fetch heap tuples through the patientid bitmap index, both decoding
// in columnar batches, and the kernels either ship operands to external R
// over the text COPY boundary (ModeR) or run in-database, Madlib-style —
// native where Madlib has C++ implementations, simulated SQL plans through
// the Volcano executor elsewhere (ModeMadlib).

// Capabilities implements plan.Physical. Madlib lacks a biclustering routine
// ("Hadoop and Postgres + Madlib do not provide sufficient analytics
// functions to run the biclustering query"), so that kernel is simply not
// registered — Supports derives the unsupported answer from its absence.
func (e *Engine) Capabilities() planir.OpSet {
	caps := planir.AllOps()
	if e.mode == ModeMadlib {
		caps = caps.Without(planir.OpKernelBicluster)
	}
	return caps
}

// Dims implements plan.Physical.
func (e *Engine) Dims() (int, int) { return e.numPatients, e.numGenes }

// SelectIDs implements plan.Physical: σ(pred)(table), returning ascending
// ids. The predicates push down to the columnar sidecar's encoded segments
// (sidecar.go).
func (e *Engine) SelectIDs(ctx context.Context, table string, preds []planir.Pred) ([]int64, error) {
	switch table {
	case planir.TableGenes:
		return selectIDsCompressed(ctx, e.sidecars["genes"], "geneid", preds)
	case planir.TablePatients:
		return selectIDsCompressed(ctx, e.sidecars["patients"], "patientid", preds)
	default:
		return nil, fmt.Errorf("rowstore: no physical select over table %q", table)
	}
}

// ScanFloats implements plan.Physical via the drug-response projection scan;
// a cohort subset is gathered from the id-ordered vector.
func (e *Engine) ScanFloats(ctx context.Context, table, col string, ids []int64) ([]float64, error) {
	if table != planir.TablePatients || col != planir.ColDrugResponse {
		return nil, fmt.Errorf("rowstore: no physical scan for %s.%s", table, col)
	}
	y, err := e.drugResponses(ctx)
	if err != nil {
		return nil, err
	}
	if ids == nil {
		return y, nil
	}
	out := make([]float64, len(ids))
	for i, id := range ids {
		out[i] = y[id]
	}
	return out, nil
}

// Pivot implements plan.Physical via the join + restructure (bitmap index
// fetch when the patient predicate is selective, sidecar scan otherwise).
func (e *Engine) Pivot(ctx context.Context, patientIDs, geneIDs []int64) (*linalg.Matrix, error) {
	return e.pivotJoin(ctx, geneIDs, patientIDs)
}

// SampleMeans implements plan.Physical via the encoded-space sample and
// aggregate over the microarray sidecar.
func (e *Engine) SampleMeans(ctx context.Context, step int) ([]float64, int, error) {
	return e.sampleMeans(ctx, step)
}

// GOMembers implements plan.Physical via the GO-table scan grouped by term.
func (e *Engine) GOMembers(ctx context.Context) ([][]int32, error) {
	return e.goMembers(ctx)
}

// GeneMeta implements plan.Physical via the gene-metadata scan Q2's final
// join consumes.
func (e *Engine) GeneMeta(ctx context.Context) (engine.GeneMeta, error) {
	fns, err := e.geneFunctions(ctx)
	if err != nil {
		return nil, err
	}
	return funcLookup{fns}, nil
}

// RunRegression implements plan.Physical. ModeR ships both operands through
// the text COPY boundary first; Madlib's linear regression is a native C++
// UDF and R's lm is native LAPACK — both reduce to the same QR solve.
func (e *Engine) RunRegression(ctx context.Context, sw *engine.StopWatch, x *linalg.Matrix, y []float64) ([]float64, float64, error) {
	var err error
	if e.mode == ModeR {
		if x, err = analytics.TransferMatrixTimed(ctx, e.glue, sw, x); err != nil {
			return nil, 0, err
		}
		if y, err = e.glue.TransferVector(ctx, y); err != nil {
			linalg.PutMatrix(x)
			return nil, 0, err
		}
	}
	sw.StartAnalytics()
	return engine.FitLeastSquares(x, y, e.Workers)
}

// RunCovariance implements plan.Physical.
func (e *Engine) RunCovariance(ctx context.Context, sw *engine.StopWatch, x *linalg.Matrix) (*linalg.Matrix, error) {
	var err error
	if e.mode == ModeR {
		if x, err = analytics.TransferMatrixTimed(ctx, e.glue, sw, x); err != nil {
			return nil, err
		}
	}
	sw.StartAnalytics()
	return engine.CovarianceHost(x, e.Workers), nil
}

// RunSVD implements plan.Physical. Madlib SVD "in effect simulate[s] matrix
// computations in SQL and plpython": Lanczos runs with every mat-vec as a
// relational plan. ModeR ships the matrix to external R and runs the native
// kernel.
func (e *Engine) RunSVD(ctx context.Context, sw *engine.StopWatch, a *linalg.Matrix, k int, seed uint64) ([]float64, error) {
	if e.mode == ModeMadlib {
		sw.StartAnalytics()
		sv, err := e.madlibSVD(ctx, a, k, seed)
		linalg.PutMatrix(a)
		if err != nil {
			return nil, err
		}
		return sv, nil
	}
	a, err := analytics.TransferMatrixTimed(ctx, e.glue, sw, a)
	if err != nil {
		return nil, err
	}
	sw.StartAnalytics()
	return engine.TopKSingularValues(a, k, seed, e.Workers)
}

// RunBicluster implements plan.Physical (ModeR only — Madlib does not
// register this kernel).
func (e *Engine) RunBicluster(ctx context.Context, sw *engine.StopWatch, x *linalg.Matrix, maxB int, seed uint64) ([]bicluster.Bicluster, error) {
	x, err := analytics.TransferMatrixTimed(ctx, e.glue, sw, x)
	if err != nil {
		return nil, err
	}
	sw.StartAnalytics()
	blocks, err := bicluster.RunCtx(ctx, x, bicluster.Options{MaxBiclusters: maxB, Seed: seed})
	linalg.PutMatrix(x)
	if err != nil {
		return nil, err
	}
	return blocks, nil
}

// RunStats implements plan.Physical. Wilcoxon has no Madlib native; the
// ranking and rank-sums run as relational plans (SQL simulation). ModeR
// ships the means vector to external R.
func (e *Engine) RunStats(ctx context.Context, sw *engine.StopWatch, means []float64, members [][]int32, sampled int) (*engine.StatsAnswer, error) {
	if e.mode == ModeMadlib {
		sw.StartAnalytics()
		return e.madlibWilcoxon(ctx, means, members, sampled)
	}
	var err error
	sw.StartTransfer()
	if means, err = e.glue.TransferVector(ctx, means); err != nil {
		return nil, err
	}
	sw.StartAnalytics()
	return engine.EnrichmentTestP(ctx, means, members, sampled, e.Workers)
}

// PhysicalName implements plan.Physical.
func (e *Engine) PhysicalName(k planir.OpKind) string {
	kernel := "external R (text COPY)"
	if e.mode == ModeMadlib {
		kernel = "in-database Madlib (native C++ / simulated SQL)"
	}
	switch k {
	case planir.OpSelectPred:
		return "sidecar-segment pushdown (dict-code EQ, run skip, packed-word LT)"
	case planir.OpScanTable:
		return "heap projection scan"
	case planir.OpSamplePatients:
		return "patient-id modulus"
	case planir.OpPivotMicro:
		return "bitmap/hash join + restructure"
	case planir.OpKernelRegression, planir.OpKernelCovariance, planir.OpKernelSVD, planir.OpKernelStats:
		return kernel
	case planir.OpKernelBicluster:
		if e.mode == ModeMadlib {
			return "unsupported"
		}
		return "Cheng-Church via " + kernel
	case planir.OpTopKByAbs:
		return "shared covariance summary"
	case planir.OpEmit:
		return "answer assembly"
	default:
		return "unsupported"
	}
}
