package linalg

import "github.com/genbase/genbase/internal/parallel"

// columnMeansInto computes column means into dst (len a.Cols, overwritten).
// Columns are partitioned across workers (0 = the GENBASE_PARALLEL / NumCPU
// default); each column still sums rows in ascending order, so the result is
// bitwise identical at any worker count. The serial path calls the range
// body directly (no closure, no allocation).
func columnMeansInto(dst []float64, a *Matrix, workers int) {
	for j := range dst {
		dst[j] = 0
	}
	if a.Rows == 0 {
		return
	}
	w := gemmWorkers(workers, int64(a.Rows)*int64(a.Cols))
	if w <= 1 {
		columnSumRange(dst, a, 0, a.Cols)
	} else {
		parallel.ForSplit(w, a.Cols, func(lo, hi int) { columnSumRange(dst, a, lo, hi) })
	}
	inv := 1 / float64(a.Rows)
	for j := range dst {
		dst[j] *= inv
	}
}

func columnSumRange(dst []float64, a *Matrix, lo, hi int) {
	for i := 0; i < a.Rows; i++ {
		ri := a.Row(i)
		for j := lo; j < hi; j++ {
			dst[j] += ri[j]
		}
	}
}

// centerColumnsInto centers a's columns into out (same shape, fully
// overwritten). Means come from pooled scratch; rows are independent, so the
// worker partition cannot affect the result.
func centerColumnsInto(out *Matrix, a *Matrix, workers int) {
	means := GetSlice(a.Cols)
	columnMeansInto(means, a, workers)
	w := gemmWorkers(workers, int64(a.Rows)*int64(a.Cols))
	if w <= 1 {
		centerRange(out, a, means, 0, a.Rows)
	} else {
		parallel.ForSplit(w, a.Rows, func(lo, hi int) { centerRange(out, a, means, lo, hi) })
	}
	PutSlice(means)
}

func centerRange(out, a *Matrix, means []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		ra, ro := a.Row(i), out.Row(i)
		for j, v := range ra {
			ro[j] = v - means[j]
		}
	}
}

// CovarianceP returns the unbiased sample covariance matrix of the columns of
// a: C = XᵀX/(n−1) where X is column-centered a. This is Q2's analytics
// kernel. With fewer than two rows the result is all zeros. Every stage
// (column means, centering, the Gram product) runs on the shared pool with
// workers goroutines (0 = the default) and is bitwise deterministic across
// worker counts. The centered intermediate is pooled scratch, so a warm
// covariance loop allocates only the output Gram matrix.
func CovarianceP(a *Matrix, workers int) *Matrix {
	if a.Rows < 2 {
		return NewMatrix(a.Cols, a.Cols)
	}
	x := GetMatrix(a.Rows, a.Cols)
	centerColumnsInto(x, a, workers)
	c := MulATAP(x, workers)
	PutMatrix(x)
	c.Scale(1 / float64(a.Rows-1))
	return c
}
