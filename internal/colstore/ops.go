package colstore

import (
	"context"
	"fmt"

	"github.com/genbase/genbase/internal/analytics"
	"github.com/genbase/genbase/internal/bicluster"
	"github.com/genbase/genbase/internal/colpage"
	"github.com/genbase/genbase/internal/engine"
	"github.com/genbase/genbase/internal/linalg"
	"github.com/genbase/genbase/internal/plan"
)

// The column store's physical operators (plan.Physical): selections are
// vectorized scans over compressed columns, pivots are zero-copy views or
// pooled gathers over the patient-major dense value column, and the kernel
// boundary is the mode's glue (external R over a text COPY stream, or the
// in-process UDF hand-off).

// Capabilities implements plan.Physical: both column-store configurations
// register every operator.
func (e *Engine) Capabilities() plan.OpSet { return plan.AllOps() }

// Dims implements plan.Physical.
func (e *Engine) Dims() (int, int) { return e.numPatients, e.numGenes }

// SelectIDs implements plan.Physical: the first predicate runs as a
// vectorized select directly on the compressed column — with structured
// predicates pushed to the encoded form (dictionary-code equality, RLE run
// skipping, packed-word range tests; DESIGN.md §15) — later conjuncts
// refine the selection vector, and the surviving positions gather the id
// column. The -compress=false ablation decodes every predicate column and
// filters row by row instead. Selection vectors are query-local
// (DESIGN.md §11).
func (e *Engine) SelectIDs(_ context.Context, table string, preds []plan.Pred) ([]int64, error) {
	var t *Table
	var idCol string
	switch table {
	case plan.TableGenes:
		t, idCol = e.genes, "geneid"
	case plan.TablePatients:
		t, idCol = e.pats, "patientid"
	default:
		return nil, fmt.Errorf("colstore: no physical select over table %q", table)
	}
	var sel []int32
	if !engine.CompressionEnabled() {
		// Decode-then-filter baseline: materialize each predicate column.
		for i, p := range preds {
			vals := t.Int(p.Col).Materialize()
			if i == 0 {
				for j, v := range vals {
					if p.Eval(v) {
						sel = append(sel, int32(j))
					}
				}
				continue
			}
			out := sel[:0]
			for _, j := range sel {
				if p.Eval(vals[j]) {
					out = append(out, j)
				}
			}
			sel = out
		}
		return t.Int(idCol).Gather(sel, nil), nil
	}
	for i, p := range preds {
		cp := pushdownPred(p)
		if i == 0 {
			sel = t.Int(p.Col).SelectPred(cp, nil)
		} else {
			sel = t.Int(p.Col).SelectRefinePred(cp, sel)
		}
	}
	return t.Int(idCol).Gather(sel, nil), nil
}

// pushdownPred translates a planner predicate into the colpage form (both
// carry exactly LT/EQ against an int64).
func pushdownPred(p plan.Pred) colpage.Pred {
	op := colpage.LT
	if p.Op == plan.CmpEQ {
		op = colpage.EQ
	}
	return colpage.Pred{Op: op, Val: p.Val}
}

// ScanFloats implements plan.Physical. The full drug-response projection is
// the decoded column itself (no copy); a cohort subset gathers by patient id
// (ids are positions — Load stores patients in id order).
func (e *Engine) ScanFloats(_ context.Context, table, col string, ids []int64) ([]float64, error) {
	if table != plan.TablePatients || col != plan.ColDrugResponse {
		return nil, fmt.Errorf("colstore: no physical scan for %s.%s", table, col)
	}
	y := e.pats.Float("drugresponse")
	if ids == nil {
		return y, nil
	}
	out := make([]float64, len(ids))
	for i, id := range ids {
		out[i] = y[id]
	}
	return out, nil
}

// Pivot implements plan.Physical via the late-materialization pivot
// (zero-copy views over the dense value column when the knob is on).
func (e *Engine) Pivot(ctx context.Context, patientIDs, geneIDs []int64) (*linalg.Matrix, error) {
	return e.pivotMicro(ctx, patientIDs, geneIDs)
}

// SampleMeans implements plan.Physical: Q5's fused sample+aggregate, either
// streaming the sampled patients' contiguous rows off the dense value column
// (zero-copy) or filtering the RLE patientid column with a selection vector.
// Per gene the contributions accumulate in ascending patient order on both
// paths, so the means are bitwise identical.
func (e *Engine) SampleMeans(ctx context.Context, step int) ([]float64, int, error) {
	sums := make([]float64, e.numGenes)
	sampled := 0
	for pid := 0; pid < e.numPatients; pid += step {
		sampled++
	}
	if e.denseVals && engine.ZeroCopyEnabled() {
		g := e.numGenes
		k := 0
		for pid := 0; pid < e.numPatients; pid += step {
			if k%64 == 0 {
				if err := engine.CheckCtx(ctx); err != nil {
					return nil, 0, err
				}
			}
			k++
			row := e.vals[pid*g : (pid+1)*g]
			for j, v := range row {
				sums[j] += v
			}
		}
		if sampled > 0 {
			for j := range sums {
				sums[j] /= float64(sampled)
			}
		}
		return sums, sampled, nil
	}
	step64 := int64(step)
	sample := func(v int64) bool { return v%step64 == 0 }
	var sel []int32
	if engine.CompressionEnabled() {
		// Encoded-space sample: the modulus runs once per patientid run
		// (the column is loaded patient-major, so runs are long) and
		// filtered-out rows are never decoded.
		sel = e.micro.Int("patientid").Select(sample, nil)
	} else {
		for i, v := range e.micro.Int("patientid").Materialize() {
			if sample(v) {
				sel = append(sel, int32(i))
			}
		}
	}
	gc := e.micro.Int("geneid")
	vals := e.micro.Float("value")
	counts := make([]int64, e.numGenes)
	for _, i := range sel {
		g := gc.At(int(i))
		sums[g] += vals[i]
		counts[g]++
	}
	for j := range sums {
		if counts[j] > 0 {
			sums[j] /= float64(counts[j])
		}
	}
	return sums, sampled, nil
}

// GOMembers implements plan.Physical: group GO membership by term.
func (e *Engine) GOMembers(_ context.Context) ([][]int32, error) {
	members := make([][]int32, e.numTerms)
	goGene := e.goTab.Int("geneid")
	goTerm := e.goTab.Int("goid")
	for i := 0; i < e.goTab.Len(); i++ {
		t := goTerm.At(i)
		members[t] = append(members[t], int32(goGene.At(i)))
	}
	return members, nil
}

// GeneMeta implements plan.Physical. The zero-copy path serves the
// function-column lookup boxed once at Load; the ablation path re-decodes
// the column (the historical cost).
func (e *Engine) GeneMeta(_ context.Context) (engine.GeneMeta, error) {
	if engine.ZeroCopyEnabled() {
		return e.meta, nil
	}
	return funcLookup{e.genes.Int("function").Materialize()}, nil
}

// RunRegression implements plan.Physical: both operands cross the mode's
// glue boundary (transfer), then the fit runs as a QR least-squares solve.
func (e *Engine) RunRegression(ctx context.Context, sw *engine.StopWatch, x *linalg.Matrix, y []float64) ([]float64, float64, error) {
	x, err := analytics.TransferMatrixTimed(ctx, e.glue(), sw, x)
	if err != nil {
		return nil, 0, err
	}
	if y, err = e.glue().TransferVector(ctx, y); err != nil {
		linalg.PutMatrix(x)
		return nil, 0, err
	}
	sw.StartAnalytics()
	return engine.FitLeastSquares(x, y, e.Workers)
}

// RunCovariance implements plan.Physical.
func (e *Engine) RunCovariance(ctx context.Context, sw *engine.StopWatch, x *linalg.Matrix) (*linalg.Matrix, error) {
	x, err := analytics.TransferMatrixTimed(ctx, e.glue(), sw, x)
	if err != nil {
		return nil, err
	}
	sw.StartAnalytics()
	return engine.CovarianceHost(x, e.Workers), nil
}

// RunSVD implements plan.Physical.
func (e *Engine) RunSVD(ctx context.Context, sw *engine.StopWatch, a *linalg.Matrix, k int, seed uint64) ([]float64, error) {
	a, err := analytics.TransferMatrixTimed(ctx, e.glue(), sw, a)
	if err != nil {
		return nil, err
	}
	sw.StartAnalytics()
	return engine.TopKSingularValues(a, k, seed, e.Workers)
}

// RunBicluster implements plan.Physical. The UDF configuration drives the
// Cheng–Church loop through the UDF interface (re-serializing the working
// matrix per extracted bicluster — the paper's observed pathology); the +R
// configuration ships the matrix once over the text boundary.
func (e *Engine) RunBicluster(ctx context.Context, sw *engine.StopWatch, x *linalg.Matrix, maxB int, seed uint64) ([]bicluster.Bicluster, error) {
	var blocks []bicluster.Bicluster
	var err error
	if e.mode == ModeUDF {
		blocks, err = e.biclusterViaUDF(ctx, sw, x, maxB, seed)
		linalg.PutMatrix(x)
	} else {
		if x, err = analytics.TransferMatrixTimed(ctx, e.text, sw, x); err != nil {
			return nil, err
		}
		sw.StartAnalytics()
		blocks, err = bicluster.RunCtx(ctx, x, bicluster.Options{MaxBiclusters: maxB, Seed: seed})
	}
	if err != nil {
		return nil, err
	}
	return blocks, nil
}

// RunStats implements plan.Physical: the means cross the glue boundary,
// then the shared Wilcoxon enrichment runs per term.
func (e *Engine) RunStats(ctx context.Context, sw *engine.StopWatch, means []float64, members [][]int32, sampled int) (*engine.StatsAnswer, error) {
	var err error
	sw.StartTransfer()
	if means, err = e.glue().TransferVector(ctx, means); err != nil {
		return nil, err
	}
	sw.StartAnalytics()
	return engine.EnrichmentTestP(ctx, means, members, sampled, e.Workers)
}

// PhysicalName implements plan.Physical.
func (e *Engine) PhysicalName(k plan.OpKind) string {
	glue := "external R (text COPY)"
	if e.mode == ModeUDF {
		glue = "in-process UDF"
	}
	switch k {
	case plan.OpSelectPred:
		if engine.CompressionEnabled() {
			return "encoded-page pushdown (dict-code EQ, run skip, packed-word LT)"
		}
		return "decode-then-filter column scan"
	case plan.OpScanTable:
		return "column projection"
	case plan.OpSamplePatients:
		return "patient-id modulus"
	case plan.OpPivotMicro:
		return "zero-copy dense view / selection-vector pivot"
	case plan.OpKernelRegression, plan.OpKernelCovariance, plan.OpKernelSVD, plan.OpKernelStats:
		return "BLAS-lite kernel via " + glue
	case plan.OpKernelBicluster:
		if e.mode == ModeUDF {
			return "Cheng-Church via per-bicluster UDF re-serialization"
		}
		return "Cheng-Church via " + glue
	case plan.OpTopKByAbs:
		return "shared covariance summary"
	case plan.OpEmit:
		return "answer assembly"
	default:
		return "unsupported"
	}
}
