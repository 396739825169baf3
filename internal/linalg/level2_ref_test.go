// Reference level-2 bodies: the mat-vec, mat-Tvec and distributed shard
// loops exactly as they were before the four-row blocking replaced them,
// kept test-only. They are the oracle of level2_equiv_test.go. Do not tune
// them: their value is that they are the one-row-at-a-time loops the
// goldens were first computed with.
package linalg

import "github.com/genbase/genbase/internal/parallel"

// refMatVecInto is the replaced matVecInto: one serial Dot per output row.
func refMatVecInto(y []float64, a *Matrix, x []float64, workers int) {
	if len(x) != a.Cols {
		panic("linalg: matvec dimension mismatch")
	}
	w := gemmWorkers(workers, 2*int64(a.Rows)*int64(a.Cols))
	if w <= 1 {
		refMatVecRange(y, a, x, 0, a.Rows)
	} else {
		parallel.ForSplit(w, a.Rows, func(lo, hi int) { refMatVecRange(y, a, x, lo, hi) })
	}
}

func refMatVecRange(y []float64, a *Matrix, x []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		y[i] = Dot(a.Row(i), x)
	}
}

// refMatTVecInto is the replaced matTVecInto: every y[j] is loaded and
// stored once per row of A.
func refMatTVecInto(y []float64, a *Matrix, x []float64, workers int) {
	if len(x) != a.Rows {
		panic("linalg: mattvec dimension mismatch")
	}
	w := gemmWorkers(workers, 2*int64(a.Rows)*int64(a.Cols))
	parallel.ForSplit(w, a.Cols, func(lo, hi int) { refMatTVecRange(y, a, x, lo, hi) })
}

// refMatTVecRange is the body of the replaced matTVecInto's worker closure.
func refMatTVecRange(y []float64, a *Matrix, x []float64, lo, hi int) {
	for j := lo; j < hi; j++ {
		y[j] = 0
	}
	for i := 0; i < a.Rows; i++ {
		ri := a.Row(i)
		xi := x[i]
		for j := lo; j < hi; j++ {
			y[j] += xi * ri[j]
		}
	}
}

// refAddATAx is the shard loop distlinalg.ATAOperator.Apply and
// multinode's Phi operator each held before AddATAx replaced both.
func refAddATAx(local []float64, part *Matrix, x []float64) {
	for r := 0; r < part.Rows; r++ {
		row := part.Row(r)
		yi := Dot(row, x)
		Axpy(yi, row, local)
	}
}

// refATAApply is ATAOperator.Apply over the reference bodies.
func refATAApply(a *Matrix, x []float64, workers int) []float64 {
	tmp := GetSlice(a.Rows)
	refMatVecInto(tmp, a, x, workers)
	y := GetSlice(a.Cols)
	refMatTVecInto(y, a, tmp, workers)
	PutSlice(tmp)
	return y
}

// Test-only conveniences over the kernels, allocating their outputs.

func matVec(a *Matrix, x []float64, workers int) []float64 {
	y := make([]float64, a.Rows)
	MatVecInto(y, a, x, workers)
	return y
}

func matTVec(a *Matrix, x []float64, workers int) []float64 {
	y := make([]float64, a.Cols)
	matTVecInto(y, a, x, workers)
	return y
}

// denseOperator wraps a symmetric dense matrix as a LinearOperator, so the
// eigensolver tests can run Lanczos on a matrix whose spectrum they know.
type denseOperator struct {
	M       *Matrix
	Workers int
}

func (d denseOperator) Dim() int { return d.M.Rows }

func (d denseOperator) Apply(x []float64) []float64 { return matVec(d.M, x, d.Workers) }
