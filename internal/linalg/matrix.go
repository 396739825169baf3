// Package linalg implements the dense linear algebra kernels GenBase needs:
// cache-blocked matrix multiplication, Householder QR, least squares,
// a symmetric Lanczos eigensolver with full reorthogonalization, SVD via
// Lanczos on AᵀA, and covariance. It is the from-scratch stand-in for
// BLAS/LAPACK in the original benchmark.
//
// All matrices are dense, row-major float64. The hot kernels (GEMM, Gram,
// covariance, mat-vec) run on the shared worker pool in internal/parallel;
// each takes its worker count from an explicit *P variant argument or the
// GENBASE_PARALLEL / NumCPU default. Work is partitioned by output, never by
// reduction, so every kernel is bitwise deterministic at any worker count —
// results stay reproducible across engines and across machines.
package linalg

import (
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix of float64. It doubles as the
// zero-copy view type: Data may alias storage owned elsewhere (see view.go),
// in which case Stride can exceed Cols. Rows are always contiguous slices.
type Matrix struct {
	Rows, Cols int
	// Stride is the distance in Data between vertically adjacent elements.
	// For a freshly allocated matrix Stride == Cols; views may differ.
	Stride int
	Data   []float64

	// pooled marks matrices minted by GetMatrix so PutMatrix recycles only
	// arena-owned backing stores, never a view over engine storage.
	pooled bool
}

// NewMatrix allocates a zeroed r×c matrix.
func NewMatrix(r, c int) *Matrix {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("linalg: invalid dimensions %d×%d", r, c))
	}
	return &Matrix{Rows: r, Cols: c, Stride: c, Data: make([]float64, r*c)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Stride+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Stride+j] = v }

// Row returns row i as a slice sharing the matrix's backing storage.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Stride : i*m.Stride+m.Cols] }

// Col copies column j into a new slice.
func (m *Matrix) Col(j int) []float64 {
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		out[i] = m.Data[i*m.Stride+j]
	}
	return out
}

// Clone returns a deep copy with compact stride.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		copy(out.Row(i), m.Row(i))
	}
	return out
}

// View returns an r×c window whose top-left corner is (i0, j0). The view
// shares storage with m; writes are visible in both.
// Test seam: the root package's TestQRMatchesReference.
func (m *Matrix) View(i0, j0, r, c int) *Matrix {
	if i0 < 0 || j0 < 0 || i0+r > m.Rows || j0+c > m.Cols {
		panic(fmt.Sprintf("linalg: view [%d:%d,%d:%d] out of %d×%d", i0, i0+r, j0, j0+c, m.Rows, m.Cols))
	}
	return &Matrix{Rows: r, Cols: c, Stride: m.Stride, Data: m.Data[i0*m.Stride+j0:]}
}

// Scale multiplies every element by s in place.
func (m *Matrix) Scale(s float64) {
	for i := 0; i < m.Rows; i++ {
		ri := m.Row(i)
		for j := range ri {
			ri[j] *= s
		}
	}
}

// Add stores a+b into m (all must be the same shape; m may alias a or b).
func (m *Matrix) Add(a, b *Matrix) {
	checkSameShape(a, b)
	checkSameShape(m, a)
	for i := 0; i < m.Rows; i++ {
		ra, rb, rm := a.Row(i), b.Row(i), m.Row(i)
		for j := range rm {
			rm[j] = ra[j] + rb[j]
		}
	}
}

// Sub stores a−b into m.
func (m *Matrix) Sub(a, b *Matrix) {
	checkSameShape(a, b)
	checkSameShape(m, a)
	for i := 0; i < m.Rows; i++ {
		ra, rb, rm := a.Row(i), b.Row(i), m.Row(i)
		for j := range rm {
			rm[j] = ra[j] - rb[j]
		}
	}
}

// MaxAbsDiff returns the largest absolute elementwise difference between a and b.
// Test seam: the arraydb, analytics and distlinalg tests compare through it.
func MaxAbsDiff(a, b *Matrix) float64 {
	checkSameShape(a, b)
	max := 0.0
	for i := 0; i < a.Rows; i++ {
		ra, rb := a.Row(i), b.Row(i)
		for j := range ra {
			if d := math.Abs(ra[j] - rb[j]); d > max {
				max = d
			}
		}
	}
	return max
}

// FrobeniusNorm returns sqrt(Σ m_ij²).
// Test seam: distlinalg's TestGramMatchesDense.
func (m *Matrix) FrobeniusNorm() float64 {
	s := 0.0
	for i := 0; i < m.Rows; i++ {
		for _, v := range m.Row(i) {
			s += v * v
		}
	}
	return math.Sqrt(s)
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

func checkSameShape(a, b *Matrix) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("linalg: shape mismatch %d×%d vs %d×%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
}

func (m *Matrix) String() string {
	return fmt.Sprintf("Matrix(%d×%d)", m.Rows, m.Cols)
}
