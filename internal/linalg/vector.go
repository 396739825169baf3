package linalg

import (
	"math"

	"github.com/genbase/genbase/internal/parallel"
)

// Dot returns the inner product of x and y (which must have equal length).
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("linalg: dot length mismatch")
	}
	s := 0.0
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

// Axpy computes y += alpha*x in place.
func Axpy(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic("linalg: axpy length mismatch")
	}
	for i, v := range x {
		y[i] += alpha * v
	}
}

// Norm2 returns the Euclidean norm of x, guarding against overflow.
func Norm2(x []float64) float64 {
	scale, ssq := 0.0, 1.0
	for _, v := range x {
		if v == 0 {
			continue
		}
		a := math.Abs(v)
		if scale < a {
			r := scale / a
			ssq = 1 + ssq*r*r
			scale = a
		} else {
			r := a / scale
			ssq += r * r
		}
	}
	return scale * math.Sqrt(ssq)
}

// ScaleVec multiplies x by s in place.
func ScaleVec(s float64, x []float64) {
	for i := range x {
		x[i] *= s
	}
}

// Mean returns the arithmetic mean of x (0 for empty input).
func Mean(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range x {
		s += v
	}
	return s / float64(len(x))
}

// MatVecInto computes y = A·x into caller-owned y (len A.Rows, fully
// overwritten) over workers (0 = the default count). len(x) must equal
// A.Cols. Output rows are partitioned across workers and every y[i] is its
// row summed in column order from 0, exactly as Dot sums it, so the result
// is bitwise identical at any worker count and to a per-row Dot loop.
func MatVecInto(y []float64, a *Matrix, x []float64, workers int) {
	if len(x) != a.Cols {
		panic("linalg: matvec dimension mismatch")
	}
	w := gemmWorkers(workers, 2*int64(a.Rows)*int64(a.Cols))
	if w <= 1 {
		matVecRange(y, a, x, 0, a.Rows)
	} else {
		parallel.ForSplit(w, a.Rows, func(lo, hi int) { matVecRange(y, a, x, lo, hi) })
	}
}

// matVecRange computes rows [lo, hi) of A·x four rows per pass: four
// independent add chains instead of one, so the loop is not bound by a
// single chain's FP-add latency. A 1–3-row tail runs Dot.
func matVecRange(y []float64, a *Matrix, x []float64, lo, hi int) {
	i := lo
	for ; i+4 <= hi; i += 4 {
		y[i], y[i+1], y[i+2], y[i+3] = dot4(a.Row(i), a.Row(i+1), a.Row(i+2), a.Row(i+3), x)
	}
	for ; i < hi; i++ {
		y[i] = Dot(a.Row(i), x)
	}
}

// matTVecInto computes y = Aᵀ·x into caller-owned y (len A.Cols, fully
// overwritten: each worker zeroes its own column range before
// accumulating). len(x) must equal A.Rows. Output columns are partitioned
// across workers, and each y[j] adds A's rows in ascending order exactly as
// one Axpy per row would, four rows per load and store of y[j] — no
// cross-worker reduction, so the result is bitwise identical at any worker
// count.
func matTVecInto(y []float64, a *Matrix, x []float64, workers int) {
	if len(x) != a.Rows {
		panic("linalg: mattvec dimension mismatch")
	}
	w := gemmWorkers(workers, 2*int64(a.Rows)*int64(a.Cols))
	parallel.ForSplit(w, a.Cols, func(lo, hi int) { matTVecRange(y, a, x, lo, hi) })
}

// matTVecRange computes columns [lo, hi) of Aᵀ·x, four rows per pass and a
// 1–3-row tail of Axpy.
func matTVecRange(y []float64, a *Matrix, x []float64, lo, hi int) {
	yr := y[lo:hi]
	clear(yr)
	i := 0
	for ; i+4 <= a.Rows; i += 4 {
		r0, r1, r2, r3 := a.Row(i), a.Row(i+1), a.Row(i+2), a.Row(i+3)
		axpy4(yr, x[i], x[i+1], x[i+2], x[i+3], r0[lo:hi], r1[lo:hi], r2[lo:hi], r3[lo:hi])
	}
	for ; i < a.Rows; i++ {
		Axpy(x[i], a.Row(i)[lo:hi], yr)
	}
}

// AddATAx adds Aᵀ(A·x) to dst (len A.Cols) one row at a time, in ascending
// row order: dst += (rᵢ·x)·rᵢ. It is the serial shard kernel of the
// distributed AᵀA operators, where each node folds its own rows into a
// partial. Four rows per pass: four Dot chains, then one left-associated
// four-row update of dst, so every element sees the additions a
// `Axpy(Dot(r, x), r, dst)` loop would make, in the same order.
func AddATAx(dst []float64, a *Matrix, x []float64) {
	if len(x) != a.Cols || len(dst) != a.Cols {
		panic("linalg: ATAx dimension mismatch")
	}
	i := 0
	for ; i+4 <= a.Rows; i += 4 {
		r0, r1, r2, r3 := a.Row(i), a.Row(i+1), a.Row(i+2), a.Row(i+3)
		s0, s1, s2, s3 := dot4(r0, r1, r2, r3, x)
		axpy4(dst, s0, s1, s2, s3, r0, r1, r2, r3)
	}
	for ; i < a.Rows; i++ {
		r := a.Row(i)
		Axpy(Dot(r, x), r, dst)
	}
}

// dot4 returns the dot products of x with four rows, each summed in column
// order from 0 exactly as Dot sums one row.
func dot4(r0, r1, r2, r3, x []float64) (s0, s1, s2, s3 float64) {
	r0, r1, r2, r3 = r0[:len(x)], r1[:len(x)], r2[:len(x)], r3[:len(x)]
	for j, v := range x {
		s0 += r0[j] * v
		s1 += r1[j] * v
		s2 += r2[j] * v
		s3 += r3[j] * v
	}
	return s0, s1, s2, s3
}

// axpy4 adds a0·r0 + a1·r1 + a2·r2 + a3·r3 to y, left-associated, so each
// y[j] takes the four terms in order, as four Axpy calls would add them.
func axpy4(y []float64, a0, a1, a2, a3 float64, r0, r1, r2, r3 []float64) {
	r0, r1, r2, r3 = r0[:len(y)], r1[:len(y)], r2[:len(y)], r3[:len(y)]
	for j, v := range y {
		y[j] = v + a0*r0[j] + a1*r1[j] + a2*r2[j] + a3*r3[j]
	}
}
