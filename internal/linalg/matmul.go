package linalg

import (
	"math"

	"github.com/genbase/genbase/internal/parallel"
)

// matmul implements the GEMM-family kernels. Mul — the engines' "native
// BLAS" path — and the AᵀA Gram kernel route through the packed,
// register-tiled hierarchy in gemm.go, blocked at the one compiled mc/kc/nc
// tile shape (tiles.go). MulNaive exists as the ablation baseline (DESIGN.md
// §8) and as the reference oracle the bitwise property tests pin the packed
// kernels against.
//
// The multicore kernels partition their OUTPUT (C row blocks for GEMM, Gram
// rows for AᵀA) across the shared worker pool: every output element is owned
// by exactly one worker and accumulated in the serial kernel's element order
// — over k ascending — so results are bitwise identical at any worker count,
// at any tile shape, and to the historical kernels (DESIGN.md §9, §17).
//
// Unlike MulNaive, the packed kernels do not skip zero multiplicands and
// need no finiteness pre-scan: the ±0.0 products a skip would drop cannot
// change any result bit. With the skipped-against operand finite every
// dropped product is ±0.0; a running sum seeded at +0.0 can never become
// -0.0 under round-to-nearest (exact cancellation rounds to +0.0), and
// s + ±0.0 == s bitwise for every other reachable s. With a non-finite
// operand nothing may be skipped anyway (0·NaN and 0·±Inf must stay NaN) —
// and nothing is. TestPackedGEMMBitwiseEqualsNaive pins both regimes.

// minParallelFlops is the kernel size below which fan-out costs more than it
// saves and the parallel kernels run inline. The cutoff cannot change
// answers — only which goroutine computes them.
const minParallelFlops = 1 << 17

// packMinWork is the M·N·K product below which the packing and blocking
// overhead of the tiled path exceeds its locality win and the kernels fall
// back to the plain triple loop. Both paths accumulate k ascending, so the
// cutoff moves only speed, never a bit. A variable (not const) so the
// bitwise property tests can force the packed path onto tiny shapes.
var packMinWork int64 = 1 << 15

// allFinite reports whether every element of m is finite. MulNaive skips
// zero multiplicands as a fast path; that skip is exact only when the
// dropped products cannot be 0·NaN or 0·±Inf (both must yield NaN), so it is
// enabled only after this scan clears the skipped-against operand. The
// packed kernels skip nothing and do not scan (see the package comment).
func allFinite(m *Matrix) bool {
	for i := 0; i < m.Rows; i++ {
		for _, v := range m.Row(i) {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
	}
	return true
}

// gemmWorkers caps the effective worker count by the kernel's flop budget.
func gemmWorkers(workers int, flops int64) int {
	if flops < minParallelFlops {
		return 1
	}
	return parallel.Resolve(workers)
}

// MulNaive computes C = A·B with the textbook triple loop (ikj order so the
// inner loop is stride-1). It stays single-threaded on purpose.
// Test seam: the root package's TestKernelPerfFloor512 and GEMM benchmarks.
func MulNaive(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic("linalg: mul dimension mismatch")
	}
	c := NewMatrix(a.Rows, b.Cols)
	skipZeros := allFinite(b)
	for i := 0; i < a.Rows; i++ {
		ci := c.Row(i)
		ai := a.Row(i)
		for k := 0; k < a.Cols; k++ {
			aik := ai[k]
			if aik == 0 && skipZeros {
				continue
			}
			bk := b.Row(k)
			for j := range ci {
				ci[j] += aik * bk[j]
			}
		}
	}
	return c
}

// MulBlockedP is Mul with an explicit worker count (0 = the
// GENBASE_PARALLEL / NumCPU default). C's row blocks are partitioned across
// workers, each running the packed hierarchy over its own rows with its own
// pooled pack scratch; within a row the accumulation order is exactly the
// serial kernel's, so the result is bitwise identical at any worker count.
func MulBlockedP(a, b *Matrix, workers int) *Matrix {
	if a.Cols != b.Rows {
		panic("linalg: mul dimension mismatch")
	}
	c := NewMatrix(a.Rows, b.Cols)
	n, m, p := a.Rows, a.Cols, b.Cols
	work := int64(n) * int64(m) * int64(p)
	if work < packMinWork {
		mulSimple(c, a, b)
		return c
	}
	w := gemmWorkers(workers, 2*work)
	parallel.ForSplit(w, n, func(lo, hi int) { mulPackedRange(c, a, b, lo, hi) })
	return c
}

// mulSimple is the small-size GEMM path: the plain ikj triple loop, no
// blocking, no packing, no zero skip.
func mulSimple(c, a, b *Matrix) {
	for i := 0; i < a.Rows; i++ {
		ai := a.Row(i)
		ci := c.Row(i)
		for k, aik := range ai {
			bk := b.Row(k)
			for j := range ci {
				ci[j] += aik * bk[j]
			}
		}
	}
}

// Mul computes C = A·B — the default matrix multiply (packed register-tiled,
// multicore, default worker count).
func Mul(a, b *Matrix) *Matrix { return MulBlockedP(a, b, 0) }

// MulATA computes AᵀA (a.Cols × a.Cols), exploiting symmetry: only the upper
// triangle is computed and then mirrored. This is the kernel behind both
// covariance (Q2) and the Lanczos operator (Q4).
func MulATA(a *Matrix) *Matrix { return MulATAP(a, 0) }

// MulATAP is MulATA with an explicit worker count. The upper-triangle rows of
// the Gram matrix are partitioned across workers with triangle-aware split
// points and computed through the packed hierarchy (both operands are column
// panels of A); each Gram element still accumulates A's rows in ascending
// order, so no cross-worker reduction exists and the result is bitwise
// identical at any worker count.
func MulATAP(a *Matrix, workers int) *Matrix {
	n := a.Cols
	// The Gram output is pooled: engines on the zero-copy path PutMatrix the
	// covariance/Gram result once it is summarized; callers that keep it
	// simply never Put (the arena only recycles what is returned to it).
	c := GetMatrixZeroed(n, n)
	work := int64(a.Rows) * int64(n) * int64(n)
	if work < packMinWork {
		gramSimple(c, a, 0, n)
	} else {
		w := gemmWorkers(workers, work)
		if w <= 1 {
			gramPackedRange(c, a, 0, n)
		} else {
			parallel.ForSplitWeighted(w, n, func(j int) float64 { return float64(n - j) },
				func(lo, hi int) { gramPackedRange(c, a, lo, hi) })
		}
	}
	for j := 0; j < n; j++ {
		for k := j + 1; k < n; k++ {
			c.Set(k, j, c.At(j, k))
		}
	}
	return c
}

// gramSimple accumulates the upper-triangle Gram rows [lo, hi) of AᵀA with
// the plain loop (small-size path; same element order as the packed path).
func gramSimple(c, a *Matrix, lo, hi int) {
	n := a.Cols
	for i := 0; i < a.Rows; i++ {
		ri := a.Row(i)
		for j := lo; j < hi; j++ {
			v := ri[j]
			cj := c.Row(j)
			for k := j; k < n; k++ {
				cj[k] += v * ri[k]
			}
		}
	}
}
