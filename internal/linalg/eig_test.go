package linalg

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSymTriEigKnown(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 1 and 3.
	vals, vecs, err := SymTriEig([]float64{2, 2}, []float64{1}, true)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(vals[0], 1, 1e-12) || !almostEqual(vals[1], 3, 1e-12) {
		t.Fatalf("vals=%v", vals)
	}
	// Eigenvector for λ=3 is (1,1)/√2 up to sign.
	if !almostEqual(math.Abs(vecs.At(0, 1)), math.Sqrt2/2, 1e-10) {
		t.Fatalf("vec=%v", vecs.Col(1))
	}
}

func TestSymTriEigDiagonal(t *testing.T) {
	vals, _, err := SymTriEig([]float64{3, 1, 2}, []float64{0, 0}, false)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 2, 3}
	for i := range want {
		if !almostEqual(vals[i], want[i], 1e-14) {
			t.Fatalf("vals=%v", vals)
		}
	}
}

func TestSymTriEigEmptyAndSingle(t *testing.T) {
	if vals, _, err := SymTriEig(nil, nil, false); err != nil || len(vals) != 0 {
		t.Fatalf("empty: %v %v", vals, err)
	}
	vals, vecs, err := SymTriEig([]float64{5}, nil, true)
	if err != nil || vals[0] != 5 || vecs.At(0, 0) != 1 {
		t.Fatalf("single: %v %v %v", vals, vecs, err)
	}
}

// Property: eigen-decomposition of a random tridiagonal reconstructs it:
// T·v = λ·v for every pair.
func TestSymTriEigResiduals(t *testing.T) {
	f := func(seed uint64) bool {
		rng := splitMix64(seed)
		n := int(seed%12) + 2
		d := make([]float64, n)
		e := make([]float64, n-1)
		for i := range d {
			d[i] = rng()*4 - 2
		}
		for i := range e {
			e[i] = rng()*2 - 1
		}
		vals, vecs, err := SymTriEig(d, e, true)
		if err != nil {
			return false
		}
		for j := 0; j < n; j++ {
			v := vecs.Col(j)
			// Compute T·v − λ·v.
			for i := 0; i < n; i++ {
				tv := d[i] * v[i]
				if i > 0 {
					tv += e[i-1] * v[i-1]
				}
				if i < n-1 {
					tv += e[i] * v[i+1]
				}
				if math.Abs(tv-vals[j]*v[i]) > 1e-8 {
					return false
				}
			}
		}
		// Ascending order.
		for j := 1; j < n; j++ {
			if vals[j] < vals[j-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestJacobiEigKnown(t *testing.T) {
	m := FromRows([][]float64{{2, 1}, {1, 2}})
	vals, vecs, err := JacobiEig(m)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(vals[0], 3, 1e-10) || !almostEqual(vals[1], 1, 1e-10) {
		t.Fatalf("vals=%v", vals)
	}
	// A·v = λ·v for top pair.
	av := matVec(m, vecs.Col(0), 0)
	for i, v := range av {
		if !almostEqual(v, 3*vecs.At(i, 0), 1e-10) {
			t.Fatal("eigenpair residual too large")
		}
	}
}

func TestJacobiEigOrthogonalVectors(t *testing.T) {
	s := randSymmetric(8, 500)
	_, vecs, err := JacobiEig(s)
	if err != nil {
		t.Fatal(err)
	}
	if MaxAbsDiff(MulATA(vecs), Identity(8)) > 1e-9 {
		t.Fatal("Jacobi eigenvectors not orthonormal")
	}
}

func TestJacobiTraceInvariant(t *testing.T) {
	f := func(seed uint64) bool {
		n := int(seed%8) + 2
		s := randSymmetric(n, seed)
		trace := 0.0
		for i := 0; i < n; i++ {
			trace += s.At(i, i)
		}
		vals, _, err := JacobiEig(s)
		if err != nil {
			return false
		}
		sum := 0.0
		for _, v := range vals {
			sum += v
		}
		return almostEqual(sum, trace, 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestLanczosMatchesJacobiOnSPD(t *testing.T) {
	f := func(seed uint64) bool {
		n := int(seed%15) + 6
		spd := randSPD(n, seed)
		ref, _, err := JacobiEig(spd)
		if err != nil {
			return false
		}
		k := 3
		got, err := Lanczos(denseOperator{M: spd}, k, LanczosOptions{Reorthogonalize: true, Seed: seed})
		if err != nil {
			return false
		}
		scale := 1 + math.Abs(ref[0])
		for i := 0; i < k; i++ {
			if math.Abs(got.Values[i]-ref[i]) > 1e-6*scale {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestLanczosEigenpairResidual(t *testing.T) {
	spd := randSPD(30, 31415)
	res, err := Lanczos(denseOperator{M: spd}, 5, LanczosOptions{Reorthogonalize: true})
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 5; j++ {
		v := res.Vectors.Col(j)
		av := matVec(spd, v, 0)
		for i := range av {
			if math.Abs(av[i]-res.Values[j]*v[i]) > 1e-5*(1+res.Values[0]) {
				t.Fatalf("residual too large for pair %d", j)
			}
		}
	}
}

func TestLanczosDescendingValues(t *testing.T) {
	spd := randSPD(25, 999)
	res, err := Lanczos(denseOperator{M: spd}, 6, LanczosOptions{Reorthogonalize: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Values); i++ {
		if res.Values[i] > res.Values[i-1]+1e-12 {
			t.Fatalf("values not descending: %v", res.Values)
		}
	}
}

func TestLanczosKLargerThanN(t *testing.T) {
	spd := randSPD(4, 7)
	res, err := Lanczos(denseOperator{M: spd}, 10, LanczosOptions{Reorthogonalize: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Values) != 4 {
		t.Fatalf("expected clamp to n=4, got %d values", len(res.Values))
	}
}

func TestLanczosLowRankBreakdown(t *testing.T) {
	// Rank-1 SPD matrix: vvᵀ. Lanczos should hit a happy breakdown and still
	// return the single nonzero eigenvalue correctly.
	n := 12
	v := make([]float64, n)
	rng := splitMix64(77)
	for i := range v {
		v[i] = rng()
	}
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			m.Set(i, j, v[i]*v[j])
		}
	}
	res, err := Lanczos(denseOperator{M: m}, 3, LanczosOptions{Reorthogonalize: true})
	if err != nil {
		t.Fatal(err)
	}
	want := Dot(v, v)
	if !almostEqual(res.Values[0], want, 1e-8*want) {
		t.Fatalf("top eigenvalue %v want %v", res.Values[0], want)
	}
	for _, lam := range res.Values[1:] {
		if math.Abs(lam) > 1e-7*want {
			t.Fatalf("spurious eigenvalue %v", lam)
		}
	}
}

func TestLanczosZeroDim(t *testing.T) {
	res, err := Lanczos(denseOperator{M: NewMatrix(0, 0)}, 3, LanczosOptions{})
	if err != nil || len(res.Values) != 0 {
		t.Fatalf("zero-dim: %v %v", res, err)
	}
}

func TestLanczosRejectsNonPositiveK(t *testing.T) {
	if _, err := Lanczos(denseOperator{M: randSPD(3, 1)}, 0, LanczosOptions{}); err == nil {
		t.Fatal("expected error for k=0")
	}
}

func TestTopKSVDMatchesATASpectrum(t *testing.T) {
	a := randMatrix(40, 18, 2024)
	svd, err := TopKSVD(a, 4, LanczosOptions{Reorthogonalize: true})
	if err != nil {
		t.Fatal(err)
	}
	ref, _, err := JacobiEig(MulATA(a))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		want := math.Sqrt(ref[i])
		if !almostEqual(svd.SingularValues[i], want, 1e-6*(1+want)) {
			t.Fatalf("σ[%d]=%v want %v", i, svd.SingularValues[i], want)
		}
	}
}

// Property: A·v_j = σ_j·u_j for the computed triplets.
func TestTopKSVDTripletConsistency(t *testing.T) {
	a := randMatrix(25, 12, 888)
	svd, err := TopKSVD(a, 3, LanczosOptions{Reorthogonalize: true})
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 3; j++ {
		av := matVec(a, svd.V.Col(j), 0)
		for i := range av {
			if math.Abs(av[i]-svd.SingularValues[j]*svd.U.At(i, j)) > 1e-6*(1+svd.SingularValues[0]) {
				t.Fatalf("triplet %d inconsistent", j)
			}
		}
	}
}

func TestCovarianceKnown(t *testing.T) {
	// Two perfectly anticorrelated columns.
	a := FromRows([][]float64{{1, -1}, {2, -2}, {3, -3}})
	c := CovarianceP(a, 0)
	if !almostEqual(c.At(0, 0), 1, 1e-12) || !almostEqual(c.At(0, 1), -1, 1e-12) {
		t.Fatalf("cov=%v", c.Data)
	}
}

func TestCovarianceMatchesPairwise(t *testing.T) {
	a := randMatrix(50, 6, 321)
	c := CovarianceP(a, 0)
	// Spot-check against the definitional pairwise formula.
	for j := 0; j < 6; j++ {
		for k := j; k < 6; k++ {
			cj, ck := a.Col(j), a.Col(k)
			mj, mk := Mean(cj), Mean(ck)
			s := 0.0
			for i := 0; i < a.Rows; i++ {
				s += (cj[i] - mj) * (ck[i] - mk)
			}
			s /= float64(a.Rows - 1)
			if !almostEqual(c.At(j, k), s, 1e-10) {
				t.Fatalf("cov(%d,%d)=%v want %v", j, k, c.At(j, k), s)
			}
		}
	}
}

// Property: covariance matrices are positive semi-definite (all eigenvalues
// ≥ −ε) and symmetric.
func TestCovariancePSD(t *testing.T) {
	f := func(seed uint64) bool {
		a := randMatrix(int(seed%30)+3, int((seed>>8)%8)+2, seed)
		c := CovarianceP(a, 0)
		if !c.IsSymmetric(1e-12) {
			return false
		}
		vals, _, err := JacobiEig(c)
		if err != nil {
			return false
		}
		for _, v := range vals {
			if v < -1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestCovarianceDegenerate(t *testing.T) {
	c := CovarianceP(NewMatrix(1, 3), 0)
	if c.FrobeniusNorm() != 0 {
		t.Fatal("covariance of a single row must be zero")
	}
}

func TestCenterColumnsZeroMean(t *testing.T) {
	a := randMatrix(20, 5, 111)
	x := CenterColumnsP(a, 0)
	for _, m := range ColumnMeansP(x, 0) {
		if math.Abs(m) > 1e-12 {
			t.Fatalf("column mean %v after centering", m)
		}
	}
}
