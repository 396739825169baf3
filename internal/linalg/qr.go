package linalg

import (
	"errors"
	"math"

	"github.com/genbase/genbase/internal/parallel"
)

// QR holds a Householder QR factorization A = Q·R of an m×n matrix with
// m ≥ n. The factors are stored compactly and COLUMN-MAJOR: column j of the
// factor is f[j*m:(j+1)*m], with R above the diagonal, the Householder
// vectors on and below it, and R's diagonal in tau. Every loop of the
// factorization walks one column top to bottom, so a contiguous column makes
// the norm, dot and axpy loops unit-stride.
type QR struct {
	m, n int
	f    []float64
	tau  []float64
}

// ErrRankDeficient is returned when a triangular solve encounters a zero (or
// numerically negligible) pivot.
var ErrRankDeficient = errors.New("linalg: matrix is rank deficient")

// qrPanel is how many reflectors are formed before the trailing columns are
// touched. A trailing column then takes the whole panel's reflectors, in
// order, while it sits in cache, and the pool is fanned out once per panel
// rather than once per reflector.
const qrPanel = 8

// NewQR factors A (m×n, m ≥ n) with Householder reflections. A is not
// modified. The factor storage comes from the scratch arena; callers that
// are done with the factorization may Release it (LeastSquares does), and
// callers that keep it simply let the GC have it.
func NewQR(a *Matrix) (*QR, error) { return NewQRP(a, 0) }

// NewQRP is NewQR with an explicit worker count.
//
// The order of operations ON EACH COLUMN is the textbook one — reflectors
// 0, 1, 2, … applied in turn, each a dot product and an update running top to
// bottom — and that order alone fixes the factor's bits. Columns do not
// interact except through the reflectors, so the schedule across columns is
// free: reflectors are formed a panel at a time (applied at once only inside
// the panel), then the trailing columns are handed out across the pool, four
// at a time, and each takes the panel's reflectors in order. The factor is
// bitwise identical at any worker count and to the unblocked,
// one-reflector-at-a-time loop. Below minParallelFlops per panel the update
// runs inline.
func NewQRP(a *Matrix, workers int) (*QR, error) {
	m, n := a.Rows, a.Cols
	if m < n {
		return nil, errors.New("linalg: QR requires rows >= cols")
	}
	f := GetSlice(m * n)
	for i := 0; i < m; i++ {
		for j, v := range a.Row(i) {
			f[j*m+i] = v
		}
	}
	tau := GetSlice(n)
	w := parallel.Resolve(workers)
	for k0 := 0; k0 < n; k0 += qrPanel {
		k1 := min(k0+qrPanel, n)
		for k := k0; k < k1; k++ {
			v := f[k*m+k : (k+1)*m]
			// Norm of the k-th column below (and including) the diagonal.
			norm := 0.0
			for _, x := range v {
				norm = math.Hypot(norm, x)
			}
			if norm == 0 {
				tau[k] = 0
				continue
			}
			if v[0] < 0 {
				norm = -norm
			}
			tau[k] = -norm // diagonal of R
			// Form the Householder vector v (stored in place, scaled so that
			// the reflector is I − v·vᵀ/v_k).
			for i := range v {
				v[i] /= norm
			}
			v[0]++
			reflectCols(v, f, m, k, k+1, k1)
		}
		// One closure per panel, and only on the fan-out path: a one-worker
		// factorization allocates nothing per column.
		if trail := n - k1; w > 1 && 4*int64(m-k0)*int64(k1-k0)*int64(trail) >= minParallelFlops {
			parallel.For(w, (trail+3)/4, func(c int) { reflectPanel(f, m, k0, k1, k1+4*c, min(k1+4*c+4, n)) })
		} else {
			reflectPanel(f, m, k0, k1, k1, n)
		}
	}
	return &QR{m: m, n: n, f: f, tau: tau}, nil
}

// reflectPanel applies reflectors [k0, k1) of the column-major factor f, in
// order, to its columns [lo, hi), four columns at a time.
func reflectPanel(f []float64, m, k0, k1, lo, hi int) {
	for j := lo; j < hi; j += 4 {
		for k := k0; k < k1; k++ {
			if v := f[k*m+k : (k+1)*m]; v[0] != 0 {
				reflectCols(v, f, m, k, j, min(j+4, hi))
			}
		}
	}
}

// reflectCols applies the reflector I − v·vᵀ/v[0] (v starts at row k) to
// rows k..m of columns [lo, hi) of the column-major block c. Columns go four
// at a time so four independent dot-product chains share each load of v;
// each column's sum still accumulates i ascending.
func reflectCols(v, c []float64, m, k, lo, hi int) {
	vkk := v[0]
	j := lo
	for ; j+4 <= hi; j += 4 {
		c0 := c[j*m+k:][:len(v)]
		c1 := c[(j+1)*m+k:][:len(v)]
		c2 := c[(j+2)*m+k:][:len(v)]
		c3 := c[(j+3)*m+k:][:len(v)]
		var s0, s1, s2, s3 float64
		for i, x := range v {
			s0 += x * c0[i]
			s1 += x * c1[i]
			s2 += x * c2[i]
			s3 += x * c3[i]
		}
		s0, s1, s2, s3 = -s0/vkk, -s1/vkk, -s2/vkk, -s3/vkk
		for i, x := range v {
			c0[i] += s0 * x
			c1[i] += s1 * x
			c2[i] += s2 * x
			c3[i] += s3 * x
		}
	}
	for ; j < hi; j++ {
		cj := c[j*m+k:][:len(v)]
		s := 0.0
		for i, x := range v {
			s += x * cj[i]
		}
		s = -s / vkk
		for i, x := range v {
			cj[i] += s * x
		}
	}
}

// Release returns the factor storage to the scratch arena. The QR must not
// be used afterwards.
func (f *QR) Release() {
	PutSlice(f.f)
	PutSlice(f.tau)
	f.f, f.tau = nil, nil
}

// R returns the upper-triangular factor (n×n).
func (f *QR) R() *Matrix {
	n := f.n
	r := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		r.Set(i, i, f.tau[i])
		for j := i + 1; j < n; j++ {
			r.Set(i, j, f.f[j*f.m+i])
		}
	}
	return r
}

// Q returns the thin orthonormal factor (m×n). It is accumulated column-major
// in scratch, like the factor, and transposed out once.
func (f *QR) Q() *Matrix {
	m, n := f.m, f.n
	qc := GetSlice(m * n)
	for i := range qc {
		qc[i] = 0
	}
	for k := n - 1; k >= 0; k-- {
		qc[k*m+k] = 1
		if f.f[k*m+k] == 0 {
			continue
		}
		reflectCols(f.f[k*m+k:(k+1)*m], qc, m, k, k, n)
	}
	q := NewMatrix(m, n)
	for i := 0; i < m; i++ {
		qi := q.Row(i)
		for j := range qi {
			qi[j] = qc[j*m+i]
		}
	}
	PutSlice(qc)
	return q
}

// QTVec applies Qᵀ to a vector of length m, returning the first n entries
// (enough for a least-squares solve) followed by the residual part.
func (f *QR) QTVec(b []float64) []float64 {
	y := make([]float64, f.m)
	f.qtvecInto(y, b)
	return y
}

// qtvecInto is QTVec into caller-owned storage (len m, fully overwritten).
func (f *QR) qtvecInto(y, b []float64) {
	m, n := f.m, f.n
	if len(b) != m {
		panic("linalg: QTVec length mismatch")
	}
	copy(y, b)
	for k := 0; k < n; k++ {
		if f.f[k*m+k] == 0 {
			continue
		}
		// y is one column of height m starting at row 0.
		reflectCols(f.f[k*m+k:(k+1)*m], y, m, k, 0, 1)
	}
}

// Solve returns the least-squares solution x minimizing ‖Ax − b‖₂.
func (f *QR) Solve(b []float64) ([]float64, error) {
	m, n := f.m, f.n
	y := GetSlice(m)
	f.qtvecInto(y, b)
	x := make([]float64, n)
	copy(x, y[:n])
	PutSlice(y)
	// Back-substitute R x = y.
	for k := n - 1; k >= 0; k-- {
		rkk := f.tau[k]
		if math.Abs(rkk) < 1e-12 {
			return nil, ErrRankDeficient
		}
		for j := k + 1; j < n; j++ {
			x[k] -= f.f[j*m+k] * x[j]
		}
		x[k] /= rkk
	}
	return x, nil
}

// LeastSquaresResult is the output of a linear regression fit (Q1).
type LeastSquaresResult struct {
	Coefficients []float64 // including intercept if the caller added one
	Residual     float64   // ‖Ax − b‖₂
	RSquared     float64   // 1 − SS_res/SS_tot
}

// LeastSquares fits b ≈ A·x with Householder QR and reports fit quality.
// All intermediates (the factor copy, Qᵀb, the prediction vector) are
// pooled, so a warm fit allocates only the returned coefficients.
func LeastSquares(a *Matrix, b []float64) (*LeastSquaresResult, error) {
	return LeastSquaresP(a, b, 0)
}

// LeastSquaresP is LeastSquares with an explicit worker count for the
// factorization and the prediction mat-vec.
func LeastSquaresP(a *Matrix, b []float64, workers int) (*LeastSquaresResult, error) {
	f, err := NewQRP(a, workers)
	if err != nil {
		return nil, err
	}
	x, err := f.Solve(b)
	f.Release()
	if err != nil {
		return nil, err
	}
	pred := GetSlice(a.Rows)
	matVecInto(pred, a, x, workers)
	ssRes := 0.0
	for i, v := range b {
		d := v - pred[i]
		ssRes += d * d
	}
	PutSlice(pred)
	mb := Mean(b)
	ssTot := 0.0
	for _, v := range b {
		d := v - mb
		ssTot += d * d
	}
	r2 := 0.0
	if ssTot > 0 {
		r2 = 1 - ssRes/ssTot
	}
	return &LeastSquaresResult{Coefficients: x, Residual: math.Sqrt(ssRes), RSquared: r2}, nil
}

// AddInterceptColumn returns [1 | A]: a copy of A with a leading column of
// ones. The copy is pooled — callers on a hot path should PutMatrix it when
// the fit is done (leaking it to the GC is harmless, just unrecycled).
func AddInterceptColumn(a *Matrix) *Matrix {
	out := GetMatrix(a.Rows, a.Cols+1)
	for i := 0; i < a.Rows; i++ {
		ro := out.Row(i)
		ro[0] = 1
		copy(ro[1:], a.Row(i))
	}
	return out
}
