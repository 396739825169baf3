package linalg

import (
	"math"
	"testing"
)

// packed_test.go pins the packed register-tiled kernels bitwise-equal to the
// MulNaive oracle on adversarial shapes: degenerate (1×n, n×1), prime dims,
// dims straddling every tile boundary of a deliberately tiny pinned tile
// shape, and operands carrying 0·NaN / 0·Inf columns — the PR 1 zero-skip
// bug class, which the packed kernels must survive without any skip at all.
// Every shape runs at workers ∈ {0, 1, 4}.

// withTinyTiles swaps in a tile shape small enough that modest test matrices
// cross every mc/kc/nc boundary (and the 4-wide register tile several times)
// and forces the packed path even below the small-size cutoff, restoring both
// afterwards. Each body also runs unmodified first, covering the
// mulSimple/gramSimple small-size fallbacks bitwise.
func withTinyTiles(t *testing.T, f func()) {
	t.Helper()
	f() // small-size fallback paths

	prevTiles, prevMin := kernelTiles, packMinWork
	kernelTiles, packMinWork = tileShape{MC: 8, KC: 16, NC: 12}, 0
	defer func() { kernelTiles, packMinWork = prevTiles, prevMin }()
	f() // packed path on every shape
}

// bitsIdentical reports exact bit equality (NaN vs NaN with any payload on
// this port compares equal by bits; +0 vs -0 does not).
func bitsIdentical(got, want *Matrix) (int, int, bool) {
	for i := 0; i < want.Rows; i++ {
		rg, rw := got.Row(i), want.Row(i)
		for j := range rw {
			if math.Float64bits(rg[j]) != math.Float64bits(rw[j]) {
				return i, j, false
			}
		}
	}
	return 0, 0, true
}

func checkBits(t *testing.T, name string, w int, got, want *Matrix) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s w=%d: shape %dx%d want %dx%d", name, w, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	if i, j, ok := bitsIdentical(got, want); !ok {
		t.Fatalf("%s w=%d: bit mismatch at (%d,%d): got %x want %x",
			name, w, i, j, math.Float64bits(got.At(i, j)), math.Float64bits(want.At(i, j)))
	}
}

func TestPackedGEMMBitwiseEqualsNaive(t *testing.T) {
	withTinyTiles(t, func() {
		shapes := []struct{ m, k, n int }{
			{1, 1, 1},
			{1, 37, 1},   // row·col degenerate
			{1, 16, 53},  // single output row
			{53, 16, 1},  // single output column
			{7, 11, 13},  // primes under one tile
			{17, 31, 29}, // primes straddling mc/kc and the nc edge
			{8, 16, 12},  // exactly one tile at every level
			{9, 17, 13},  // every level one past its boundary
			{7, 15, 11},  // every level one short of its boundary
			{16, 32, 24}, // two exact tiles per level
			{41, 43, 47}, // primes, several tiles per level
			{5, 64, 4},   // deep k, narrow output
		}
		for _, s := range shapes {
			a := randMatrix(s.m, s.k, uint64(s.m*1000+s.k))
			b := randMatrix(s.k, s.n, uint64(s.k*1000+s.n))
			// Plant exact zeros in a so the dropped-skip ±0 argument is
			// exercised, not just assumed.
			for i := 0; i < s.m; i++ {
				for kk := 0; kk < s.k; kk += 3 {
					a.Row(i)[kk] = 0
				}
			}
			want := MulNaive(a, b)
			for _, w := range []int{0, 1, 4} {
				checkBits(t, "packed", w, MulBlockedP(a, b, w), want)
			}
		}
	})
}

// TestPackedGEMMNonFiniteBitwise is the PR 1 regression class: a zero in A
// against NaN/±Inf in B must produce NaN (0·NaN = 0·Inf = NaN), and the
// packed result must still be bitwise equal to the oracle, which disables its
// zero-skip in exactly this regime.
func TestPackedGEMMNonFiniteBitwise(t *testing.T) {
	withTinyTiles(t, func() {
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			a := randMatrix(19, 23, 91)
			b := randMatrix(23, 17, 92)
			for i := 0; i < a.Rows; i++ {
				a.Row(i)[5] = 0 // zero column of A…
			}
			for j := 0; j < b.Cols; j++ {
				b.Row(5)[j] = bad // …against a non-finite row of B
			}
			want := MulNaive(a, b)
			if !math.IsNaN(want.At(0, 0)) {
				t.Fatalf("oracle broken: expected NaN, got %v", want.At(0, 0))
			}
			for _, w := range []int{0, 1, 4} {
				checkBits(t, "packed-nonfinite", w, MulBlockedP(a, b, w), want)
			}
		}
	})
}

func TestPackedATABitwise(t *testing.T) {
	withTinyTiles(t, func() {
		for _, s := range []struct{ m, n int }{{1, 13}, {29, 1}, {17, 19}, {8, 12}, {9, 13}, {31, 37}} {
			a := randMatrix(s.m, s.n, uint64(s.m*100+s.n))
			for i := 0; i < s.m; i += 2 {
				a.Row(i)[0] = 0
			}
			wantATA := MulNaive(a.Transpose(), a)
			for _, w := range []int{0, 1, 4} {
				checkBits(t, "packed-ATA", w, MulATAP(a, w), wantATA)
			}
		}
	})
}

// TestPackedLargeCompiledTiles runs one shape bigger than the compiled tile
// shape, so the product blocking (not just the tiny test shape) is exercised
// bitwise.
func TestPackedLargeCompiledTiles(t *testing.T) {
	ts := kernelTiles
	a := randMatrix(ts.MC+5, ts.KC+9, 71)
	b := randMatrix(ts.KC+9, 61, 72)
	want := MulNaive(a, b)
	for _, w := range []int{0, 1, 4} {
		checkBits(t, "packed-large", w, MulBlockedP(a, b, w), want)
	}
}

// The benchmark records KernelTileInfo in every result header; the string
// names the compiled shape the packed kernels block at.
func TestKernelTileInfoNamesCompiledShape(t *testing.T) {
	if got, want := KernelTileInfo(), "mr4 nr4 mc128 kc256 nc512 (default)"; got != want {
		t.Fatalf("KernelTileInfo() = %q, want %q", got, want)
	}
}
