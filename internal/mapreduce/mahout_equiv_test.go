package mapreduce

// The row-layout Mahout jobs against the element-keyed jobs they replaced
// (mahout_ref_test.go), on generated and fuzzed matrices: every float of
// every driver-side answer — the gram and Xᵀy, the column means, the
// centered gram, one Lanczos mat-vec and the residual sum of squares — must
// keep its bits, before any timing of the new layout is read.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"github.com/genbase/genbase/internal/linalg"
)

// specialValues are the floats whose text or arithmetic is irregular: NaN,
// the infinities, negative zero, subnormals, and magnitudes whose products
// and sums overflow to Inf (or, met with the other sign, to NaN).
var specialValues = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0,
	5e-324, -2.5e-310, 1e200, -1e200, 1e154, -1.5e154, math.MaxFloat64,
}

// genValue draws one entry: a normal float, or with palette "specials" a
// special value one time in four, or with "overflow" a magnitude near
// 1e154, whose squares and sums overflow.
func genValue(rng *rand.Rand, palette string) float64 {
	switch {
	case palette == "specials" && rng.Intn(4) == 0:
		return specialValues[rng.Intn(len(specialValues))]
	case palette == "overflow":
		return rng.NormFloat64() * 1e154
	}
	return rng.NormFloat64()
}

// mahoutInput is one case: an n×k matrix with its y, a regression β and a
// Lanczos vector v.
type mahoutInput struct {
	x          *linalg.Matrix
	y, beta, v []float64
}

func genMahoutInput(rng *rand.Rand, n, k int, palette string) mahoutInput {
	in := mahoutInput{x: linalg.NewMatrix(n, k), y: make([]float64, n), beta: make([]float64, k), v: make([]float64, k)}
	for i := range in.x.Data {
		in.x.Data[i] = genValue(rng, palette)
	}
	for _, vec := range [][]float64{in.y, in.beta, in.v} {
		for i := range vec {
			vec[i] = genValue(rng, palette)
		}
	}
	return in
}

// sameBits fails t at the first float of got whose bits differ from want's.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, reference has %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v (%#x), reference %v (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// noErr fails t on the first non-nil error.
func noErr(t *testing.T, errs ...error) {
	t.Helper()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// assertMahoutMatchesReference runs every Mahout-style job and its reference
// on in, over splits input splits and workers map/reduce slots.
func assertMahoutMatchesReference(t *testing.T, in mahoutInput, splits, workers int) {
	t.Helper()
	ctx := context.Background()
	e := &Engine{Splits: splits, Sched: LocalScheduler{Workers: workers}}
	n, k := in.x.Rows, in.x.Cols
	matrix := matrixLines(in.x, splits)

	gram, aty, err := e.gramJob(ctx, matrix, k, in.y)
	refGram, refAty, refErr := e.refGramJob(ctx, matrix, k, in.y)
	noErr(t, err, refErr)
	sameBits(t, "gram", gram.Data, refGram.Data)
	sameBits(t, "Xᵀy", aty, refAty)

	means, err := e.colMeansJob(ctx, matrix, k, n)
	refMeans, refErr := e.refColMeansJob(ctx, matrix, k, n)
	noErr(t, err, refErr)
	sameBits(t, "means", means, refMeans)

	cov, err := e.centeredGramJob(ctx, matrix, k, refMeans)
	refCov, refErr := e.refCenteredGramJob(ctx, matrix, k, refMeans)
	noErr(t, err, refErr)
	sameBits(t, "centered gram", cov.Data, refCov.Data)

	op := &mrATAOperator{ctx: ctx, e: e, matrix: matrix, k: k}
	ref := &mrATAOperator{ctx: ctx, e: e, matrix: matrix, k: k}
	z, refZ := op.Apply(in.v), ref.refApply(in.v)
	noErr(t, op.err, ref.err)
	sameBits(t, "AᵀAv", z, refZ)

	ss, err := e.ssResJob(ctx, matrix, in.beta, in.y)
	refSS, refErr := e.refSSResJob(ctx, matrix, in.beta, in.y)
	noErr(t, err, refErr)
	sameBits(t, "ssres", []float64{ss}, []float64{refSS})
}

// TestSumReduceMatchesReference holds the vector reducer to the replaced
// scalar one element by element, on groups of special values: the jobs'
// partials never hold −0 (each starts from +0), but a sum must still start
// from 0, so that a lone −0 sums to 0.
func TestSumReduceMatchesReference(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(35))
	for c := 0; c < 200; c++ {
		mappers, n := rng.Intn(4)+1, rng.Intn(5)+1
		values := make([][]byte, mappers)
		want := make([]string, n)
		for j := range want {
			elems := make([][]byte, mappers)
			for m := range elems {
				elems[m] = strconv.AppendFloat(nil, genValue(rng, "specials"), 'g', -1, 64)
				if j > 0 {
					values[m] = append(values[m], ',')
				}
				values[m] = append(values[m], elems[m]...)
			}
			out := &Emitter{ctx: ctx, runs: make([]run, 1)}
			noErr(t, refSumReduce([]byte("k"), elems, out))
			_, want[j], _ = strings.Cut(out.runs[0].lines()[0], "\t")
		}
		out := &Emitter{ctx: ctx, runs: make([]run, 1)}
		noErr(t, sumReduce([]byte("k"), values, out))
		if got, want := out.runs[0].lines()[0], "k\t"+strings.Join(want, ","); got != want {
			t.Fatalf("values %q: sumReduce gave %q, reference %q", values, got, want)
		}
	}
}

func TestMahoutMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	shapes := [][2]int{{1, 1}, {2, 5}, {7, 1}, {20, 6}, {41, 13}} // n×k; n=1, 2 and 7 fall below some split counts
	for _, palette := range []string{"finite", "specials", "overflow"} {
		for _, shape := range shapes {
			for _, splits := range []int{1, 3, 8} {
				for _, workers := range []int{1, 2} {
					in := genMahoutInput(rng, shape[0], shape[1], palette)
					name := fmt.Sprintf("%s/%dx%d/s=%d/w=%d", palette, shape[0], shape[1], splits, workers)
					t.Run(name, func(t *testing.T) { assertMahoutMatchesReference(t, in, splits, workers) })
				}
			}
		}
	}
}

// FuzzMahoutMatchesReference derives a case from the fuzz input: shape picks
// k, the split count and the worker count, and each byte of data is one
// matrix entry — a special value below 2·len(specialValues), else a small
// multiple of 3/8. y, β and v cycle through the same entries.
func FuzzMahoutMatchesReference(f *testing.F) {
	f.Add([]byte("\x00\x01\x02\x03\x04\x05\x06\x07\x08\x09\x0a\x0b"), uint16(0x1a))
	f.Add([]byte("genbase covariance rows"), uint16(0x45))
	f.Add([]byte{200, 100, 50, 25, 12, 6, 3}, uint16(0xff))
	f.Add([]byte{16, 18, 14, 22}, uint16(0))
	f.Fuzz(func(t *testing.T, data []byte, shape uint16) {
		k, splits, workers := int(shape&7)+1, int(shape>>3&7)+1, int(shape>>6&1)+1
		n := min(len(data)/k, 64)
		if n == 0 {
			return
		}
		value := func(i int) float64 {
			b := data[i%len(data)]
			if int(b) < 2*len(specialValues) {
				return specialValues[int(b)%len(specialValues)]
			}
			return float64(int8(b)) * 0.375
		}
		in := mahoutInput{x: linalg.NewMatrix(n, k), y: make([]float64, n), beta: make([]float64, k), v: make([]float64, k)}
		for i := range in.x.Data {
			in.x.Data[i] = value(i)
		}
		for i := range in.y {
			in.y[i] = value(3*i + 1)
		}
		for i := range in.beta {
			in.beta[i], in.v[i] = value(5*i+2), value(7*i+3)
		}
		assertMahoutMatchesReference(t, in, splits, workers)
	})
}
