package linalg

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestQRReconstructs(t *testing.T) {
	f := func(seed uint64) bool {
		m := int(seed%20) + 5
		n := int((seed>>8)%uint64(m)) + 1
		a := randMatrix(m, n, seed)
		qr, err := NewQR(a)
		if err != nil {
			return false
		}
		recon := Mul(qr.Q(), qr.R())
		return MaxAbsDiff(recon, a) < 1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestQROrthonormal(t *testing.T) {
	a := randMatrix(17, 9, 77)
	qr, err := NewQR(a)
	if err != nil {
		t.Fatal(err)
	}
	q := qr.Q()
	qtq := MulATA(q)
	if MaxAbsDiff(qtq, Identity(9)) > 1e-10 {
		t.Fatalf("QᵀQ deviates from I by %v", MaxAbsDiff(qtq, Identity(9)))
	}
}

func TestQRUpperTriangular(t *testing.T) {
	a := randMatrix(10, 6, 78)
	qr, _ := NewQR(a)
	r := qr.R()
	for i := 1; i < r.Rows; i++ {
		for j := 0; j < i; j++ {
			if r.At(i, j) != 0 {
				t.Fatalf("R(%d,%d)=%v not zero", i, j, r.At(i, j))
			}
		}
	}
}

func TestQRRequiresTall(t *testing.T) {
	if _, err := NewQR(NewMatrix(2, 3)); err == nil {
		t.Fatal("expected error for wide matrix")
	}
}

func TestSolveExactSystem(t *testing.T) {
	// Square non-singular system: solution should be near-exact.
	a := FromRows([][]float64{{2, 1}, {1, 3}})
	b := []float64{5, 10}
	qr, _ := NewQR(a)
	x, err := qr.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(x[0], 1, 1e-10) || !almostEqual(x[1], 3, 1e-10) {
		t.Fatalf("x=%v, want [1 3]", x)
	}
}

// Property: for consistent systems b = A·x₀, least squares recovers x₀.
func TestSolveRecoversPlantedSolution(t *testing.T) {
	f := func(seed uint64) bool {
		m := int(seed%15) + 8
		n := int((seed>>8)%6) + 2
		a := randMatrix(m, n, seed)
		x0 := randMatrix(n, 1, seed^3).Col(0)
		b := matVec(a, x0, 0)
		qr, err := NewQR(a)
		if err != nil {
			return false
		}
		x, err := qr.Solve(b)
		if err != nil {
			return true // random rank deficiency is acceptable, just skip
		}
		for i := range x {
			if !almostEqual(x[i], x0[i], 1e-7) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: the least-squares residual is orthogonal to the column space.
func TestResidualOrthogonalToColumns(t *testing.T) {
	a := randMatrix(20, 5, 99)
	b := randMatrix(20, 1, 100).Col(0)
	qr, _ := NewQR(a)
	x, err := qr.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	pred := matVec(a, x, 0)
	resid := make([]float64, len(b))
	for i := range b {
		resid[i] = b[i] - pred[i]
	}
	proj := matTVec(a, resid, 0)
	for j, v := range proj {
		if math.Abs(v) > 1e-8 {
			t.Fatalf("Aᵀr[%d]=%v, residual not orthogonal", j, v)
		}
	}
}

func TestSolveRankDeficient(t *testing.T) {
	a := NewMatrix(4, 2)
	for i := 0; i < 4; i++ {
		a.Set(i, 0, float64(i+1))
		a.Set(i, 1, 2*float64(i+1)) // duplicate column direction
	}
	qr, _ := NewQR(a)
	if _, err := qr.Solve([]float64{1, 2, 3, 4}); !errors.Is(err, ErrRankDeficient) {
		t.Fatalf("expected ErrRankDeficient, got %v", err)
	}
}

func TestLeastSquaresPerfectFitR2(t *testing.T) {
	a := AddInterceptColumn(randMatrix(30, 3, 55))
	beta := []float64{2, -1, 0.5, 3}
	b := matVec(a, beta, 0)
	res, err := LeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if res.RSquared < 1-1e-10 {
		t.Fatalf("R² = %v for perfect fit", res.RSquared)
	}
	if res.Residual > 1e-8 {
		t.Fatalf("residual = %v for perfect fit", res.Residual)
	}
	for i := range beta {
		if !almostEqual(res.Coefficients[i], beta[i], 1e-8) {
			t.Fatalf("coef[%d]=%v want %v", i, res.Coefficients[i], beta[i])
		}
	}
}

func TestLeastSquaresNoisyFitR2InRange(t *testing.T) {
	rng := splitMix64(123)
	a := AddInterceptColumn(randMatrix(200, 4, 66))
	beta := []float64{1, 2, -3, 0.5, 1.5}
	b := matVec(a, beta, 0)
	for i := range b {
		b[i] += (rng() - 0.5) * 0.1
	}
	res, err := LeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if res.RSquared <= 0.9 || res.RSquared > 1 {
		t.Fatalf("R² = %v, want (0.9, 1]", res.RSquared)
	}
}

func TestAddInterceptColumn(t *testing.T) {
	a := FromRows([][]float64{{2, 3}})
	x := AddInterceptColumn(a)
	if x.Cols != 3 || x.At(0, 0) != 1 || x.At(0, 2) != 3 {
		t.Fatalf("intercept column wrong: %v", x.Data)
	}
}

// Property: normal equations solution matches QR least squares on
// well-conditioned problems.
func TestQRAgreesWithNormalEquations(t *testing.T) {
	a := randMatrix(50, 4, 200)
	b := randMatrix(50, 1, 201).Col(0)
	res, err := LeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	// Solve (AᵀA)x = Aᵀb via Jacobi eigendecomposition.
	ata := MulATA(a)
	atb := matTVec(a, b, 0)
	vals, vecs, err := JacobiEig(ata)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 4)
	for j := 0; j < 4; j++ {
		vj := vecs.Col(j)
		c := Dot(vj, atb) / vals[j]
		Axpy(c, vj, x)
	}
	for i := range x {
		if !almostEqual(x[i], res.Coefficients[i], 1e-6) {
			t.Fatalf("x[%d]: normal eq %v vs QR %v", i, x[i], res.Coefficients[i])
		}
	}
}
