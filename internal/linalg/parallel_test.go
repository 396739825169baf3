package linalg

import (
	"math"
	"testing"
)

// Determinism contract of the parallel kernel layer: every kernel must
// produce BITWISE-identical results at any worker count, because the engines
// compare answers across configurations exactly and the benchmark's
// reproducibility depends on it. Shapes are chosen to exceed the inline
// cutoff and to be indivisible by the block size.

func bitsEqualMat(t *testing.T, name string, w int, got, want *Matrix) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s workers=%d: shape %dx%d vs %dx%d", name, w, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := 0; i < want.Rows; i++ {
		gr, wr := got.Row(i), want.Row(i)
		for j := range wr {
			if math.Float64bits(gr[j]) != math.Float64bits(wr[j]) {
				t.Fatalf("%s workers=%d: element (%d,%d) %v != %v (bitwise)", name, w, i, j, gr[j], wr[j])
			}
		}
	}
}

func bitsEqualVec(t *testing.T, name string, w int, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s workers=%d: len %d vs %d", name, w, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s workers=%d: [%d] %v != %v (bitwise)", name, w, i, got[i], want[i])
		}
	}
}

func TestParallelKernelsBitwiseDeterministic(t *testing.T) {
	a := randMatrix(211, 97, 1)
	b := randMatrix(97, 73, 2)
	x := randMatrix(97, 1, 3).Col(0)
	xr := randMatrix(211, 1, 4).Col(0)

	mul1 := MulBlockedP(a, b, 1)
	ata1 := MulATAP(a, 1)
	abt1 := MulABTP(a, a, 1)
	cov1 := CovarianceP(a, 1)
	means1 := ColumnMeansP(a, 1)
	cent1 := CenterColumnsP(a, 1)
	mv1 := MatVecP(a, x, 1)
	mtv1 := MatTVecP(a, xr, 1)
	svd1, err := TopKSVD(a, 6, LanczosOptions{Reorthogonalize: true, Seed: 5, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	for _, w := range []int{2, 8} {
		bitsEqualMat(t, "MulBlocked", w, MulBlockedP(a, b, w), mul1)
		bitsEqualMat(t, "MulATA", w, MulATAP(a, w), ata1)
		bitsEqualMat(t, "MulABT", w, MulABTP(a, a, w), abt1)
		bitsEqualMat(t, "Covariance", w, CovarianceP(a, w), cov1)
		bitsEqualVec(t, "ColumnMeans", w, ColumnMeansP(a, w), means1)
		bitsEqualMat(t, "CenterColumns", w, CenterColumnsP(a, w), cent1)
		bitsEqualVec(t, "MatVec", w, MatVecP(a, x, w), mv1)
		bitsEqualVec(t, "MatTVec", w, MatTVecP(a, xr, w), mtv1)
		svdw, err := TopKSVD(a, 6, LanczosOptions{Reorthogonalize: true, Seed: 5, Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		bitsEqualVec(t, "TopKSVD values", w, svdw.SingularValues, svd1.SingularValues)
		bitsEqualMat(t, "TopKSVD V", w, svdw.V, svd1.V)
		bitsEqualMat(t, "TopKSVD U", w, svdw.U, svd1.U)
	}
}

// The QR applies each reflector to the trailing columns across the pool, one
// column per output; the factor must not depend on the worker count. The
// shape is large enough that the update really fans out (and then, as the
// trailing block shrinks, falls back to inline mid-factorization).
func TestParallelQRBitwiseDeterministic(t *testing.T) {
	a := randMatrix(400, 131, 6)
	b := randMatrix(400, 1, 7).Col(0)
	f1, err := NewQRP(a, 1)
	if err != nil {
		t.Fatal(err)
	}
	r1, q1 := f1.R(), f1.Q()
	x1, err := f1.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	ls1, err := LeastSquaresP(a, b, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 3, 8} {
		f, err := NewQRP(a, w)
		if err != nil {
			t.Fatal(err)
		}
		bitsEqualMat(t, "QR R", w, f.R(), r1)
		bitsEqualMat(t, "QR Q", w, f.Q(), q1)
		x, err := f.Solve(b)
		if err != nil {
			t.Fatal(err)
		}
		bitsEqualVec(t, "QR Solve", w, x, x1)
		ls, err := LeastSquaresP(a, b, w)
		if err != nil {
			t.Fatal(err)
		}
		bitsEqualVec(t, "LeastSquares", w, ls.Coefficients, ls1.Coefficients)
		bitsEqualVec(t, "LeastSquares fit", w, []float64{ls.Residual, ls.RSquared}, []float64{ls1.Residual, ls1.RSquared})
	}
}

// The default-knob entry points must match the explicit-worker variants
// bitwise too (they are the same kernels).
func TestDefaultEntryPointsMatchExplicit(t *testing.T) {
	a := randMatrix(131, 67, 9)
	b := randMatrix(67, 41, 10)
	bitsEqualMat(t, "Mul", 0, Mul(a, b), MulBlockedP(a, b, 1))
	bitsEqualMat(t, "MulATA", 0, MulATA(a), MulATAP(a, 1))
	bitsEqualMat(t, "Covariance", 0, Covariance(a), CovarianceP(a, 1))
}

// Regression for the zero-skip fast path: 0·NaN and 0·±Inf must produce NaN.
// The kernels may skip zero multiplicands only after verifying the skipped-
// against operand is entirely finite.
func TestZeroSkipPropagatesNonFinite(t *testing.T) {
	// C = A·B where A[0][1] == 0 and B row 1 carries NaN / +Inf: every C[0][j]
	// must be NaN (0·NaN = NaN, 0·Inf = NaN).
	a := FromRows([][]float64{{1, 0}, {2, 3}})
	for _, bad := range []float64{math.NaN(), math.Inf(1)} {
		b := FromRows([][]float64{{1, 2, 3}, {bad, bad, bad}})
		for name, mul := range map[string]func(a, b *Matrix) *Matrix{
			"MulNaive":   MulNaive,
			"MulBlocked": MulBlocked,
		} {
			c := mul(a, b)
			for j := 0; j < 3; j++ {
				if !math.IsNaN(c.At(0, j)) {
					t.Fatalf("%s: C[0][%d] = %v, want NaN (0·%v dropped)", name, j, c.At(0, j), bad)
				}
			}
			// The finite row must stay finite: 2·1+3·bad is NaN/Inf by design,
			// so only check the kernel didn't corrupt dimensions.
			if c.Rows != 2 || c.Cols != 3 {
				t.Fatalf("%s: bad shape", name)
			}
		}
	}

	// AᵀA with a zero next to a NaN in the same row: (AᵀA)[0][1] accumulates
	// 0·NaN and must be NaN.
	ata := MulATA(FromRows([][]float64{{0, math.NaN()}, {1, 1}}))
	if !math.IsNaN(ata.At(0, 1)) || !math.IsNaN(ata.At(1, 0)) {
		t.Fatalf("MulATA dropped 0·NaN: %v", ata.Data)
	}

	// Fully finite inputs still use the skip and agree with the oracle.
	f := randMatrix(40, 30, 11)
	g := randMatrix(30, 20, 12)
	if MaxAbsDiff(MulBlocked(f, g), MulNaive(f, g)) > 1e-9 {
		t.Fatal("finite fast path diverged")
	}
}
