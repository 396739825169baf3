package arraydb

import (
	"context"
	"fmt"
	"math"

	"github.com/genbase/genbase/internal/bicluster"
	"github.com/genbase/genbase/internal/colpage"
	"github.com/genbase/genbase/internal/engine"
	"github.com/genbase/genbase/internal/linalg"
	"github.com/genbase/genbase/internal/plan"
)

// The array store's physical operators (plan.Physical): metadata lives in
// 1-D attribute arrays scanned directly, pivots are chunk-aligned subarray
// gathers (single-pass pooled dense gathers on the zero-copy path), and the
// kernels run on the host — or on the coprocessor device model when an
// Accelerator is attached, which books modeled compute and transfer time in
// place of measured host time.

// Capabilities implements plan.Physical: SciDB runs every operator.
func (e *Engine) Capabilities() plan.OpSet { return plan.AllOps() }

// Dims implements plan.Physical.
func (e *Engine) Dims() (int, int) { return e.numPats, e.numGen }

// attrOf resolves an IR column to its 1-D attribute array.
func (e *Engine) attrOf(table, col string) ([]int64, error) {
	switch {
	case table == plan.TableGenes && col == plan.ColFunction:
		return e.function, nil
	case table == plan.TablePatients && col == plan.ColAge:
		return e.age, nil
	case table == plan.TablePatients && col == plan.ColGender:
		return e.gender, nil
	case table == plan.TablePatients && col == plan.ColDiseaseID:
		return e.disease, nil
	default:
		return nil, fmt.Errorf("arraydb: no attribute array for %s.%s", table, col)
	}
}

// SelectIDs implements plan.Physical (ids are array coordinates). With the
// compression knob on, predicates push down to the encoded attribute pages
// (dictionary-code equality, RLE run skipping, packed-word range tests —
// DESIGN.md §15) and rejected coordinates are never decoded; the ablation
// path is the historical dense scan.
func (e *Engine) SelectIDs(_ context.Context, table string, preds []plan.Pred) ([]int64, error) {
	if engine.CompressionEnabled() && len(preds) > 0 {
		var sel []int32
		for i, p := range preds {
			if _, err := e.attrOf(table, p.Col); err != nil {
				return nil, err
			}
			pg := e.attrPages[p.Col]
			cp := colpage.Pred{Op: colpage.LT, Val: p.Val}
			if p.Op == plan.CmpEQ {
				cp.Op = colpage.EQ
			}
			if i == 0 {
				sel = pg.Select(cp, nil)
			} else {
				sel = pg.RefinePred(cp, sel)
			}
		}
		out := make([]int64, len(sel))
		for i, c := range sel {
			out[i] = int64(c)
		}
		return out, nil
	}
	cols := make([][]int64, len(preds))
	for i, p := range preds {
		a, err := e.attrOf(table, p.Col)
		if err != nil {
			return nil, err
		}
		cols[i] = a
	}
	n := e.numGen
	if table == plan.TablePatients {
		n = e.numPats
	}
	var out []int64
	for i := 0; i < n; i++ {
		ok := true
		for j, p := range preds {
			if !p.Eval(cols[j][i]) {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, int64(i))
		}
	}
	return out, nil
}

// ScanFloats implements plan.Physical over the drug-response attribute.
func (e *Engine) ScanFloats(_ context.Context, table, col string, ids []int64) ([]float64, error) {
	if table != plan.TablePatients || col != plan.ColDrugResponse {
		return nil, fmt.Errorf("arraydb: no physical scan for %s.%s", table, col)
	}
	if ids == nil {
		return e.drugResponse, nil
	}
	out := make([]float64, len(ids))
	for i, id := range ids {
		out[i] = e.drugResponse[id]
	}
	return out, nil
}

// Pivot implements plan.Physical: chunk-aligned subarray gathers. The
// zero-copy path lands the selection in one pooled dense matrix in a single
// pass; the ablation path keeps the historical Gather → Materialize double
// copy for every kernel. (Pre-plan, the Q2/Q4 ablation paths fed chunked
// operators — Array2D.CovarianceP, NewATAOperatorP — straight to the
// kernels without a dense materialization; those kernels accumulate in the
// same element order as the dense ones, so answers are unchanged, and the
// chunked implementations remain exercised by the arraydb unit tests.)
func (e *Engine) Pivot(ctx context.Context, patientIDs, geneIDs []int64) (*linalg.Matrix, error) {
	var x *linalg.Matrix
	switch {
	case patientIDs == nil && geneIDs == nil:
		if engine.ZeroCopyEnabled() {
			if v, ok := e.expr.DenseView(); ok {
				x = v
				break
			}
		}
		x = e.expr.Materialize()
	case patientIDs == nil:
		if engine.ZeroCopyEnabled() {
			x = e.expr.GatherColsDense(geneIDs)
		} else {
			x = e.expr.GatherCols(geneIDs).Materialize()
		}
	case geneIDs == nil:
		if engine.ZeroCopyEnabled() {
			x = e.expr.GatherRowsDense(patientIDs)
		} else {
			x = e.expr.GatherRows(patientIDs).Materialize()
		}
	default:
		// Both axes selected (the cohort scenarios): gather the patient rows
		// through one scratch row, picking the selected genes.
		if engine.ZeroCopyEnabled() {
			x = linalg.GetMatrix(len(patientIDs), len(geneIDs))
			buf := linalg.GetSlice(e.numGen)
			for i, pid := range patientIDs {
				e.expr.CopyRow(int(pid), buf)
				dst := x.Row(i)
				for j, gid := range geneIDs {
					dst[j] = buf[gid]
				}
			}
			linalg.PutSlice(buf)
		} else {
			x = e.expr.GatherRows(patientIDs).GatherCols(geneIDs).Materialize()
		}
	}
	if err := engine.CheckCtx(ctx); err != nil {
		linalg.PutMatrix(x)
		return nil, err
	}
	return x, nil
}

// SampleMeans implements plan.Physical: stream the sampled rows off chunked
// storage (views or one pooled buffer on the zero-copy path, a gathered
// subarray on the ablation path). Accumulation order is ascending patient
// either way, so the means are bitwise identical.
func (e *Engine) SampleMeans(_ context.Context, step int) ([]float64, int, error) {
	var sampled []int64
	for i := 0; i < e.numPats; i += step {
		sampled = append(sampled, int64(i))
	}
	means := make([]float64, e.numGen)
	if engine.ZeroCopyEnabled() {
		if v, ok := e.expr.DenseView(); ok {
			for _, pid := range sampled {
				for j, x := range v.Row(int(pid)) {
					means[j] += x
				}
			}
		} else {
			buf := linalg.GetSlice(e.numGen)
			for _, pid := range sampled {
				e.expr.CopyRow(int(pid), buf)
				for j, v := range buf {
					means[j] += v
				}
			}
			linalg.PutSlice(buf)
		}
	} else {
		sub := e.expr.GatherRows(sampled)
		buf := make([]float64, e.numGen)
		for i := 0; i < sub.Rows; i++ {
			sub.CopyRow(i, buf)
			for j, v := range buf {
				means[j] += v
			}
		}
	}
	for j := range means {
		means[j] /= float64(len(sampled))
	}
	return means, len(sampled), nil
}

// GOMembers implements plan.Physical over the belongs[gene, term] array.
func (e *Engine) GOMembers(_ context.Context) ([][]int32, error) {
	members := make([][]int32, e.numTerm)
	for g := 0; g < e.numGen; g++ {
		row := e.goArr[g*e.numTerm : (g+1)*e.numTerm]
		for t, b := range row {
			if b == 1 {
				members[t] = append(members[t], int32(g))
			}
		}
	}
	return members, nil
}

// GeneMeta implements plan.Physical over the function attribute array.
func (e *Engine) GeneMeta(_ context.Context) (engine.GeneMeta, error) {
	return funcLookup{e.function}, nil
}

// RunRegression implements plan.Physical. Regression offload is unsupported
// on the coprocessor ("the Intel MKL automatic offload of this operation is
// currently not fully supported"), so Q1-shaped kernels always run on the
// host, even for the accelerated configuration.
func (e *Engine) RunRegression(_ context.Context, sw *engine.StopWatch, x *linalg.Matrix, y []float64) ([]float64, float64, error) {
	sw.StartAnalytics()
	return engine.FitLeastSquares(x, y, e.Workers)
}

// RunCovariance implements plan.Physical (pdgemm-style kernel, offloadable).
func (e *Engine) RunCovariance(ctx context.Context, sw *engine.StopWatch, x *linalg.Matrix) (*linalg.Matrix, error) {
	inBytes := int64(x.Rows) * int64(x.Cols) * 8
	outBytes := int64(x.Cols) * int64(x.Cols) * 8
	var cov *linalg.Matrix
	err := e.runKernel(ctx, sw, "gemm", inBytes, outBytes, func() error {
		cov = linalg.CovarianceP(x, e.Workers)
		return nil
	})
	linalg.PutMatrix(x)
	if err != nil {
		return nil, err
	}
	return cov, nil
}

// RunSVD implements plan.Physical: Lanczos over the dense AᵀA operator
// (offloadable).
func (e *Engine) RunSVD(ctx context.Context, sw *engine.StopWatch, x *linalg.Matrix, k int, seed uint64) ([]float64, error) {
	op := linalg.ATAOperator{A: x, Workers: e.Workers}
	inBytes := int64(x.Rows) * int64(x.Cols) * 8
	outBytes := int64(k) * int64(x.Cols+1) * 8
	var sv []float64
	err := e.runKernel(ctx, sw, "lanczos", inBytes, outBytes, func() error {
		eig, kerr := linalg.Lanczos(op, k,
			linalg.LanczosOptions{Reorthogonalize: true, Seed: seed, Workers: e.Workers})
		if kerr != nil {
			return kerr
		}
		sv = make([]float64, len(eig.Values))
		for i, lam := range eig.Values {
			if lam < 0 {
				lam = 0
			}
			sv[i] = math.Sqrt(lam)
		}
		return nil
	})
	linalg.PutMatrix(x)
	if err != nil {
		return nil, err
	}
	return sv, nil
}

// RunBicluster implements plan.Physical (offloadable).
func (e *Engine) RunBicluster(ctx context.Context, sw *engine.StopWatch, x *linalg.Matrix, maxB int, seed uint64) ([]bicluster.Bicluster, error) {
	var blocks []bicluster.Bicluster
	inBytes := int64(x.Rows) * int64(x.Cols) * 8
	err := e.runKernel(ctx, sw, "bicluster", inBytes, 4096, func() error {
		var kerr error
		blocks, kerr = bicluster.RunCtx(ctx, x, bicluster.Options{MaxBiclusters: maxB, Seed: seed})
		return kerr
	})
	linalg.PutMatrix(x)
	if err != nil {
		return nil, err
	}
	return blocks, nil
}

// RunStats implements plan.Physical (rank kernel, offloadable).
func (e *Engine) RunStats(ctx context.Context, sw *engine.StopWatch, means []float64, members [][]int32, sampled int) (*engine.StatsAnswer, error) {
	var ans *engine.StatsAnswer
	inBytes := int64(len(means))*8 + int64(len(e.goArr))
	err := e.runKernel(ctx, sw, "rank", inBytes, int64(e.numTerm)*16, func() error {
		var kerr error
		ans, kerr = engine.EnrichmentTestP(ctx, means, members, sampled, e.Workers)
		return kerr
	})
	if err != nil {
		return nil, err
	}
	return ans, nil
}

// PhysicalName implements plan.Physical.
func (e *Engine) PhysicalName(k plan.OpKind) string {
	kernel := "host BLAS-lite kernel"
	if e.Accel != nil {
		kernel = "coprocessor offload (" + e.Accel.Name() + ")"
	}
	switch k {
	case plan.OpSelectPred:
		if engine.CompressionEnabled() {
			return "encoded attribute-page pushdown"
		}
		return "attribute-array scan"
	case plan.OpScanTable:
		return "attribute-array projection"
	case plan.OpSamplePatients:
		return "coordinate modulus"
	case plan.OpPivotMicro:
		return "chunk-aligned subarray gather"
	case plan.OpKernelRegression:
		return "host BLAS-lite kernel (offload unsupported)"
	case plan.OpKernelCovariance, plan.OpKernelSVD, plan.OpKernelBicluster, plan.OpKernelStats:
		return kernel
	case plan.OpTopKByAbs:
		return "shared covariance summary"
	case plan.OpEmit:
		return "answer assembly"
	default:
		return "unsupported"
	}
}
