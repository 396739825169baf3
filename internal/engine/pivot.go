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
