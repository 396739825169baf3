package rengine

import (
	"context"
	"fmt"

	"github.com/genbase/genbase/internal/bicluster"
	"github.com/genbase/genbase/internal/engine"
	"github.com/genbase/genbase/internal/linalg"
	"github.com/genbase/genbase/internal/plan"
)

// Vanilla R's physical operators (plan.Physical): selections and scans walk
// the dataframes directly, the pivot is R's reshape/acast served as a view
// over (or pooled copy of) the dense value column, and
// kernels run in-process — subject to R's memory wall: the cell budget is
// charged before any dataframe or matrix materializes, reproducing "Vanilla
// R cannot scale to the large dataset".

// Capabilities implements plan.Physical: R implements every operator.
func (e *Engine) Capabilities() plan.OpSet { return plan.AllOps() }

// Dims implements plan.Physical.
func (e *Engine) Dims() (int, int) { return e.pats.Len(), e.genes.Len() }

// SelectIDs implements plan.Physical: a dataframe scan applying the
// conjunction per row, returning ascending ids.
func (e *Engine) SelectIDs(_ context.Context, table string, preds []plan.Pred) ([]int64, error) {
	var f *Frame
	var idName string
	switch table {
	case plan.TableGenes:
		f, idName = e.genes, "geneid"
	case plan.TablePatients:
		f, idName = e.pats, "patientid"
	default:
		return nil, fmt.Errorf("rengine: no dataframe for table %q", table)
	}
	cols := make([][]int64, len(preds))
	for i, p := range preds {
		cols[i] = f.Int(p.Col)
	}
	ids := f.Int(idName)
	var out []int64
	for i := 0; i < f.Len(); i++ {
		ok := true
		for j, p := range preds {
			if !p.Eval(cols[j][i]) {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, ids[i])
		}
	}
	return out, nil
}

// ScanFloats implements plan.Physical over the patients dataframe.
func (e *Engine) ScanFloats(_ context.Context, table, col string, ids []int64) ([]float64, error) {
	if table != plan.TablePatients || col != plan.ColDrugResponse {
		return nil, fmt.Errorf("rengine: no physical scan for %s.%s", table, col)
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

// Pivot implements plan.Physical: R's reshape of the microarray into a dense
// matrix holding the given patients (rows, in order; nil = all, ascending
// id) and genes (columns, in order; nil = all), after charging the result
// against the cell budget. The full pivot is a view over the patient-major
// value column; subsets are contiguous row copies into pooled scratch.
func (e *Engine) Pivot(ctx context.Context, patientIDs, geneIDs []int64) (*linalg.Matrix, error) {
	rows := e.pats.Len()
	if patientIDs != nil {
		rows = len(patientIDs)
	}
	cols := e.genes.Len()
	if geneIDs != nil {
		cols = len(geneIDs)
	}
	if err := e.checkMatrixBudget(rows, cols); err != nil {
		return nil, err
	}
	return engine.PivotDense(ctx, e.vals, e.pats.Len(), e.genes.Len(), patientIDs, geneIDs)
}

// SampleMeans implements plan.Physical: an R aggregate over the sampled
// patients' contiguous rows of the dense value column.
func (e *Engine) SampleMeans(ctx context.Context, step int) ([]float64, int, error) {
	return engine.SampleMeansDense(ctx, e.vals, e.pats.Len(), e.genes.Len(), step)
}

// GOMembers implements plan.Physical: group the GO membership triples by
// term.
func (e *Engine) GOMembers(_ context.Context) ([][]int32, error) {
	members := make([][]int32, e.ds.Dims.GOTerms)
	goGene := e.goTri.Int("geneid")
	goTerm := e.goTri.Int("goid")
	for k := range goGene {
		members[goTerm[k]] = append(members[goTerm[k]], int32(goGene[k]))
	}
	return members, nil
}

// GeneMeta implements plan.Physical.
func (e *Engine) GeneMeta(_ context.Context) (engine.GeneMeta, error) {
	return funcLookup{e.genes.Int("function")}, nil
}

// RunRegression implements plan.Physical, charging the intercept-augmented
// design matrix against the cell budget (lm materializes it).
func (e *Engine) RunRegression(_ context.Context, sw *engine.StopWatch, x *linalg.Matrix, y []float64) ([]float64, float64, error) {
	if err := e.checkMatrixBudget(x.Rows, x.Cols+1); err != nil {
		linalg.PutMatrix(x)
		return nil, 0, err
	}
	sw.StartAnalytics()
	return engine.FitLeastSquares(x, y, e.Workers)
}

// RunCovariance implements plan.Physical, charging the gene×gene result
// against the cell budget.
func (e *Engine) RunCovariance(_ context.Context, sw *engine.StopWatch, x *linalg.Matrix) (*linalg.Matrix, error) {
	sw.StartAnalytics()
	g := x.Cols
	if int64(g)*int64(g) > e.maxCells() {
		linalg.PutMatrix(x)
		return nil, fmt.Errorf("%w: %d×%d covariance matrix", engine.ErrOutOfMemory, g, g)
	}
	return engine.CovarianceHost(x, e.Workers), nil
}

// RunSVD implements plan.Physical.
func (e *Engine) RunSVD(_ context.Context, sw *engine.StopWatch, a *linalg.Matrix, k int, seed uint64) ([]float64, error) {
	sw.StartAnalytics()
	return engine.TopKSingularValues(a, k, seed, e.Workers)
}

// RunBicluster implements plan.Physical.
func (e *Engine) RunBicluster(ctx context.Context, sw *engine.StopWatch, x *linalg.Matrix, maxB int, seed uint64) ([]bicluster.Bicluster, error) {
	sw.StartAnalytics()
	blocks, err := bicluster.RunCtx(ctx, x, bicluster.Options{MaxBiclusters: maxB, Seed: seed})
	linalg.PutMatrix(x)
	if err != nil {
		return nil, err
	}
	return blocks, nil
}

// RunStats implements plan.Physical.
func (e *Engine) RunStats(ctx context.Context, sw *engine.StopWatch, means []float64, members [][]int32, sampled int) (*engine.StatsAnswer, error) {
	sw.StartAnalytics()
	return engine.EnrichmentTestP(ctx, means, members, sampled, e.Workers)
}

// PhysicalName implements plan.Physical.
func (e *Engine) PhysicalName(k plan.OpKind) string {
	switch k {
	case plan.OpSelectPred:
		return "dataframe row scan"
	case plan.OpScanTable:
		return "dataframe column projection"
	case plan.OpSamplePatients:
		return "patient-id modulus"
	case plan.OpPivotMicro:
		return "view / pooled gather over the dense value column (budget-charged)"
	case plan.OpKernelRegression, plan.OpKernelCovariance, plan.OpKernelSVD, plan.OpKernelStats, plan.OpKernelBicluster:
		return "in-process R kernel"
	case plan.OpTopKByAbs:
		return "shared covariance summary"
	case plan.OpEmit:
		return "answer assembly"
	default:
		return "unsupported"
	}
}
