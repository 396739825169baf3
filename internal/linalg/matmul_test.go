package linalg

import (
	"testing"
	"testing/quick"
)

func TestMulSmallKnown(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	c := Mul(a, b)
	want := FromRows([][]float64{{19, 22}, {43, 50}})
	if MaxAbsDiff(c, want) > 1e-12 {
		t.Fatalf("got %v", c.Data)
	}
}

func TestMulDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Mul(NewMatrix(2, 3), NewMatrix(2, 3))
}

// Property: blocked GEMM agrees with the naive triple loop on random shapes,
// including shapes that are not multiples of the block size.
func TestBlockedMatchesNaive(t *testing.T) {
	f := func(seed uint64) bool {
		r := int(seed%90) + 1
		k := int((seed>>8)%90) + 1
		c := int((seed>>16)%90) + 1
		a := randMatrix(r, k, seed)
		b := randMatrix(k, c, seed^0xabcdef)
		return MaxAbsDiff(Mul(a, b), MulNaive(a, b)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestMulBlockedLargerThanBlock pins shapes that straddle every level of the
// packed hierarchy: more rows than MC, more reduction steps than KC, and odd
// remainders against the 4-wide register tile.
func TestMulBlockedLargerThanBlock(t *testing.T) {
	ts := kernelTiles
	a := randMatrix(ts.MC+7, ts.KC+3, 11)
	b := randMatrix(ts.KC+3, 73, 12)
	if MaxAbsDiff(Mul(a, b), MulNaive(a, b)) > 1e-9 {
		t.Fatal("packed result diverges beyond one block")
	}
}

func TestMulATAMatchesExplicit(t *testing.T) {
	f := func(seed uint64) bool {
		a := randMatrix(int(seed%20)+2, int((seed>>8)%20)+2, seed)
		return MaxAbsDiff(MulATA(a), Mul(a.Transpose(), a)) < 1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestMulATASymmetric(t *testing.T) {
	a := randMatrix(13, 9, 21)
	if !MulATA(a).IsSymmetric(1e-12) {
		t.Fatal("AᵀA must be symmetric")
	}
}

func TestMatVecMatchesMul(t *testing.T) {
	a := randMatrix(6, 4, 41)
	x := randMatrix(4, 1, 42)
	got := matVec(a, x.Col(0), 0)
	want := Mul(a, x)
	for i, v := range got {
		if !almostEqual(v, want.At(i, 0), 1e-12) {
			t.Fatalf("matvec[%d]=%v want %v", i, v, want.At(i, 0))
		}
	}
}

func TestMatTVecMatchesTransposeMatVec(t *testing.T) {
	f := func(seed uint64) bool {
		a := randMatrix(int(seed%15)+1, int((seed>>8)%15)+1, seed)
		x := randMatrix(a.Rows, 1, seed^1).Col(0)
		got := matTVec(a, x, 0)
		want := matVec(a.Transpose(), x, 0)
		for i := range got {
			if !almostEqual(got[i], want[i], 1e-10) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: (AB)ᵀ = BᵀAᵀ.
func TestMulTransposeIdentityProperty(t *testing.T) {
	f := func(seed uint64) bool {
		a := randMatrix(int(seed%10)+1, int((seed>>8)%10)+1, seed)
		b := randMatrix(a.Cols, int((seed>>16)%10)+1, seed^2)
		return MaxAbsDiff(Mul(a, b).Transpose(), Mul(b.Transpose(), a.Transpose())) < 1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestDotAxpyNorm(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{4, 5, 6}
	if Dot(x, y) != 32 {
		t.Fatalf("dot=%v", Dot(x, y))
	}
	Axpy(2, x, y)
	if y[2] != 12 {
		t.Fatalf("axpy result %v", y)
	}
	if !almostEqual(Norm2([]float64{3, 4}), 5, 1e-14) {
		t.Fatal("norm2 wrong")
	}
}

func TestNorm2OverflowSafe(t *testing.T) {
	big := 1e200
	if got := Norm2([]float64{big, big}); !almostEqual(got/big, 1.4142135623730951, 1e-12) {
		t.Fatalf("norm2 overflowed: %v", got)
	}
}

func TestMean(t *testing.T) {
	x := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if !almostEqual(Mean(x), 5, 1e-14) {
		t.Fatalf("mean=%v", Mean(x))
	}
	if Mean(nil) != 0 {
		t.Fatal("mean of empty input")
	}
}
