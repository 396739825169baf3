// Equivalence of the four-row level-2 kernels with the bodies they replaced
// (level2_ref_test.go), bit for bit, on generated and fuzzed inputs: row
// counts that are not a multiple of four, empty and one-column matrices,
// strided views, non-finite and subnormal values, and the row and column
// ranges parallel.Split hands each worker.
package linalg

import (
	"fmt"
	"math"
	"testing"

	"github.com/genbase/genbase/internal/parallel"
)

var level2Workers = []int{1, 2, 3, 8}

// sameLevel2Bits fails unless got and want agree bit for bit, except that a
// NaN matches any NaN. When both operands of an add are NaN, x86 keeps the
// first one's payload, and the compiler, not the source, orders a
// commutative add's operands: Axpy's `y[i] += alpha * v` and the reference's
// `y[j] += xi * ri[j]` are the same expression, yet on a matrix mixing
// math.NaN() with the NaN of Inf−Inf they keep different payloads. The sign
// of zero, infinities, subnormals and every rounding are held exactly.
func sameLevel2Bits(t *testing.T, name string, w int, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s workers=%d: len %d vs %d", name, w, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) && !(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
			t.Fatalf("%s workers=%d: [%d] %v != %v (bits %#x vs %#x)", name, w, i, got[i], want[i],
				math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

// level2Specials are the values whose arithmetic a reordering would expose:
// NaN and ±Inf propagation, the sign of zero, gradual underflow, overflow.
var level2Specials = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0,
	5e-324, -2.2e-308, 1.5e-310, math.MaxFloat64, -1e300, 1, -0.75,
}

// level2Matrix returns a rows×cols strided view (pad spare elements per row,
// offset spare elements in front) whose entries are uniform in [-1, 1),
// with every specialEvery-th entry drawn from level2Specials instead
// (specialEvery 0: none). The padding holds NaN, so a kernel that reads
// past a row's end shows it.
func level2Matrix(rows, cols, pad, offset int, specialEvery int, seed uint64) *Matrix {
	rng := splitMix64(seed)
	stride := cols + pad
	data := make([]float64, offset+rows*stride)
	for i := range data {
		data[i] = math.NaN()
	}
	m := ViewOf(data, offset, rows, cols, stride)
	n := 0
	for i := 0; i < rows; i++ {
		r := m.Row(i)
		for j := range r {
			r[j] = level2Value(rng, &n, specialEvery)
		}
	}
	return m
}

func level2Vector(n, specialEvery int, seed uint64) []float64 {
	rng := splitMix64(seed)
	v := make([]float64, n)
	k := 0
	for i := range v {
		v[i] = level2Value(rng, &k, specialEvery)
	}
	return v
}

func level2Value(rng func() float64, n *int, specialEvery int) float64 {
	*n++
	u := rng()
	if specialEvery > 0 && *n%specialEvery == 0 {
		return level2Specials[int(u*float64(len(level2Specials)))]
	}
	return 2*u - 1
}

// poisoned returns n NaNs, so a kernel that leaves an output unwritten
// shows it.
func poisoned(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = math.NaN()
	}
	return v
}

// assertLevel2MatchesReference holds every level-2 kernel to its reference
// on a: whole-matrix at each worker count, then range by range over the
// splits those worker counts produce (the fan-out itself only starts above
// minParallelFlops, so small shapes reach the split ranges only this way).
func assertLevel2MatchesReference(t *testing.T, name string, a *Matrix, x, xr []float64) {
	t.Helper()
	for _, w := range level2Workers {
		got, want := poisoned(a.Rows), poisoned(a.Rows)
		MatVecInto(got, a, x, w)
		refMatVecInto(want, a, x, w)
		sameLevel2Bits(t, name+"/MatVecInto", w, got, want)

		got, want = poisoned(a.Cols), poisoned(a.Cols)
		matTVecInto(got, a, xr, w)
		refMatTVecInto(want, a, xr, w)
		sameLevel2Bits(t, name+"/matTVecInto", w, got, want)

		sameLevel2Bits(t, name+"/ATAOperator.Apply", w, ATAOperator{A: a, Workers: w}.Apply(x), refATAApply(a, x, w))

		for _, r := range parallel.Split(a.Rows, w) {
			got, want := poisoned(a.Rows), poisoned(a.Rows)
			matVecRange(got, a, x, r.Lo, r.Hi)
			refMatVecRange(want, a, x, r.Lo, r.Hi)
			sameLevel2Bits(t, fmt.Sprintf("%s/matVecRange[%d:%d]", name, r.Lo, r.Hi), w, got, want)
		}
		for _, r := range parallel.Split(a.Cols, w) {
			got, want := poisoned(a.Cols), poisoned(a.Cols)
			matTVecRange(got, a, xr, r.Lo, r.Hi)
			refMatTVecRange(want, a, xr, r.Lo, r.Hi)
			sameLevel2Bits(t, fmt.Sprintf("%s/matTVecRange[%d:%d]", name, r.Lo, r.Hi), w, got, want)
		}
	}
	// The shard kernel accumulates: start both from the same non-zero
	// partial, as a node folding a second block of rows would.
	got, want := level2Vector(a.Cols, 0, 99), level2Vector(a.Cols, 0, 99)
	AddATAx(got, a, x)
	refAddATAx(want, a, x)
	sameLevel2Bits(t, name+"/AddATAx", 1, got, want)
	got, want = make([]float64, a.Cols), make([]float64, a.Cols)
	AddATAx(got, a, x)
	refAddATAx(want, a, x)
	sameLevel2Bits(t, name+"/AddATAx(zero)", 1, got, want)
}

func TestLevel2MatchesReference(t *testing.T) {
	for rows := 0; rows <= 9; rows++ {
		for _, cols := range []int{0, 1, 2, 3, 5, 8, 17} {
			for _, sp := range []int{0, 3} {
				seed := uint64(100*rows + 10*cols + sp)
				a := level2Matrix(rows, cols, 0, 0, sp, seed)
				name := fmt.Sprintf("%dx%d/specials=%d", rows, cols, sp)
				assertLevel2MatchesReference(t, name, a, level2Vector(cols, sp, seed+1), level2Vector(rows, sp, seed+2))
			}
		}
	}
	cases := []struct {
		name                          string
		rows, cols, pad, offset, spec int
	}{
		{"strided-13x7", 13, 7, 5, 3, 0},
		{"strided-specials-22x9", 22, 9, 2, 1, 4},
		{"column-view-11x1", 11, 1, 6, 2, 5},
		{"wide-3x300", 3, 300, 0, 0, 0},
		// Above minParallelFlops, so the kernels really fan out at w > 1;
		// neither dimension is a multiple of four or of the worker counts.
		{"fan-out-403x211", 403, 211, 0, 0, 0},
		{"fan-out-strided-specials-387x203", 387, 203, 9, 4, 97},
	}
	for i, c := range cases {
		seed := uint64(1000 + 10*i)
		a := level2Matrix(c.rows, c.cols, c.pad, c.offset, c.spec, seed)
		assertLevel2MatchesReference(t, c.name, a, level2Vector(c.cols, c.spec, seed+1), level2Vector(c.rows, c.spec, seed+2))
	}
}

// SingularValues skips the Ritz and left-singular vectors; its values must
// still be TopKSVD's, bit for bit.
func TestSingularValuesMatchTopKSVD(t *testing.T) {
	for _, shape := range [][2]int{{0, 0}, {1, 1}, {9, 3}, {60, 17}, {300, 41}} {
		a := level2Matrix(shape[0], shape[1], 0, 0, 0, uint64(shape[0]+shape[1]))
		for _, w := range []int{1, 3} {
			opts := LanczosOptions{Reorthogonalize: true, Seed: 11, Workers: w}
			svd, err := TopKSVD(a, 6, opts)
			if err != nil {
				t.Fatal(err)
			}
			sv, err := SingularValues(ATAOperator{A: a, Workers: w}, 6, opts)
			if err != nil {
				t.Fatal(err)
			}
			bitsEqualVec(t, fmt.Sprintf("SingularValues %dx%d", shape[0], shape[1]), w, sv, svd.SingularValues)
		}
	}
}

// FuzzATAApplyMatchesReference derives a case from the fuzz input: shape
// picks the row count (0–15), the column count (0–15), the row padding of
// the view and the worker count, and each byte of data is one entry — a
// special value below 2·len(level2Specials), else a small multiple of 3/8.
// x and the mat-Tvec input cycle through the same entries.
func FuzzATAApplyMatchesReference(f *testing.F) {
	f.Add([]byte("\x00\x01\x02\x03\x04\x05\x06\x07\x08\x09\x0a\x0b"), uint16(0x0375))
	f.Add([]byte("genbase lanczos over a-transpose-a"), uint16(0x1a5b))
	f.Add([]byte{200, 100, 50, 25, 12, 6, 3}, uint16(0xffff))
	f.Add([]byte{16, 18, 14, 22, 3, 7}, uint16(0x0091))
	f.Add([]byte{255}, uint16(0))
	f.Fuzz(func(t *testing.T, data []byte, shape uint16) {
		if len(data) == 0 {
			return
		}
		rows, cols := int(shape&15), int(shape>>4&15)
		pad, workers := int(shape>>8&3), level2Workers[shape>>10&3]
		value := func(i int) float64 {
			b := data[i%len(data)]
			if int(b) < 2*len(level2Specials) {
				return level2Specials[int(b)%len(level2Specials)]
			}
			return float64(int8(b)) * 0.375
		}
		a := level2Matrix(rows, cols, pad, 1, 0, 0)
		n := 0
		for i := 0; i < rows; i++ {
			r := a.Row(i)
			for j := range r {
				r[j] = value(n)
				n++
			}
		}
		x, xr := make([]float64, cols), make([]float64, rows)
		for j := range x {
			x[j] = value(3*j + 1)
		}
		for i := range xr {
			xr[i] = value(5*i + 2)
		}
		assertLevel2FuzzCase(t, a, x, xr, workers)
	})
}

func assertLevel2FuzzCase(t *testing.T, a *Matrix, x, xr []float64, w int) {
	t.Helper()
	sameLevel2Bits(t, "ATAOperator.Apply", w, ATAOperator{A: a, Workers: w}.Apply(x), refATAApply(a, x, w))
	for _, r := range parallel.Split(a.Rows, w) {
		got, want := poisoned(a.Rows), poisoned(a.Rows)
		matVecRange(got, a, x, r.Lo, r.Hi)
		refMatVecRange(want, a, x, r.Lo, r.Hi)
		sameLevel2Bits(t, "matVecRange", w, got, want)
	}
	for _, r := range parallel.Split(a.Cols, w) {
		got, want := poisoned(a.Cols), poisoned(a.Cols)
		matTVecRange(got, a, xr, r.Lo, r.Hi)
		refMatTVecRange(want, a, xr, r.Lo, r.Hi)
		sameLevel2Bits(t, "matTVecRange", w, got, want)
	}
	got, want := make([]float64, a.Cols), make([]float64, a.Cols)
	AddATAx(got, a, x)
	refAddATAx(want, a, x)
	sameLevel2Bits(t, "AddATAx", 1, got, want)
}
