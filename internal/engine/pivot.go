package engine

import (
	"context"

	"github.com/genbase/genbase/internal/linalg"
)

// PivotDense is the shared zero-copy pivot over a patient-major dense value
// column (vals[pid*nGenes+gid]): colstore and rengine both lay their
// microarray out this way at load time, and both route their pivots here.
// Identity selections on both axes are served as a stride-aware view (no
// bytes move); anything else is a single-pass contiguous row copy / gene
// gather into pooled scratch. Callers release the result with
// linalg.PutMatrix (a no-op for the view case).
func PivotDense(ctx context.Context, vals []float64, nPats, nGenes int, patientIDs, geneIDs []int64) (*linalg.Matrix, error) {
	if isIdentitySel(patientIDs, nPats) && isIdentitySel(geneIDs, nGenes) {
		return linalg.DenseView(vals, nPats, nGenes), nil
	}
	nRows := nPats
	if patientIDs != nil {
		nRows = len(patientIDs)
	}
	nCols := nGenes
	if geneIDs != nil {
		nCols = len(geneIDs)
	}
	m := linalg.GetMatrix(nRows, nCols)
	for k := 0; k < nRows; k++ {
		if k%1024 == 0 {
			if err := CheckCtx(ctx); err != nil {
				linalg.PutMatrix(m)
				return nil, err
			}
		}
		pid := k
		if patientIDs != nil {
			pid = int(patientIDs[k])
		}
		src := vals[pid*nGenes : (pid+1)*nGenes]
		if geneIDs == nil {
			copy(m.Row(k), src)
			continue
		}
		dst := m.Row(k)
		for j, gid := range geneIDs {
			dst[j] = src[gid]
		}
	}
	return m, nil
}

// SampleMeansDense is Q5's fused sample+aggregate over the same
// patient-major dense value column: the mean of every gene over patients 0,
// step, 2·step, …, accumulated in ascending patient order, with the number
// of patients sampled. colstore, rengine and arraydb's single-chunk array
// all aggregate here. An empty sample leaves every mean at 0.
func SampleMeansDense(ctx context.Context, vals []float64, nPats, nGenes, step int) ([]float64, int, error) {
	sums := make([]float64, nGenes)
	sampled := 0
	for pid := 0; pid < nPats; pid += step {
		if sampled%64 == 0 {
			if err := CheckCtx(ctx); err != nil {
				return nil, 0, err
			}
		}
		sampled++
		for j, v := range vals[pid*nGenes : (pid+1)*nGenes] {
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

// isIdentitySel reports whether an id selection keeps all n ids in their
// natural order (nil means "all"), i.e. a pivot over it is the identity
// restructuring and can be served as a view.
func isIdentitySel(ids []int64, n int) bool {
	if ids == nil {
		return true
	}
	if len(ids) != n {
		return false
	}
	for i, id := range ids {
		if id != int64(i) {
			return false
		}
	}
	return true
}
