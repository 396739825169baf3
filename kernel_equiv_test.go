// Equivalence of the second-pass kernels (DESIGN.md §9) with the bodies they
// replaced (kernel_ref_test.go), on generated inputs, bit for bit. The
// goldens pin one point — small preset, seed 1, default parameters; these
// pin the kernels' contract away from it: degenerate shapes, non-finite
// values, every exit of the Cheng–Church search, every worker count.
package genbase

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"

	"github.com/genbase/genbase/internal/bicluster"
	"github.com/genbase/genbase/internal/datagen"
	"github.com/genbase/genbase/internal/engine"
	"github.com/genbase/genbase/internal/linalg"
	"github.com/genbase/genbase/internal/stats"
)

var equivWorkers = []int{1, 2, 3, 8}

// sameBits reports whether two vectors agree in every bit (so NaN equals the
// same NaN, and −0 differs from +0).
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func sameMatrixBits(a, b *linalg.Matrix) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := 0; i < a.Rows; i++ {
		if !sameBits(a.Row(i), b.Row(i)) {
			return false
		}
	}
	return true
}

// signedMatrix has entries in [-1, 1), so about half the diagonals the
// factorization meets are negative (the norm = −norm branch).
func signedMatrix(r, c int, seed uint64) *linalg.Matrix {
	m := randomMatrix(r, c, seed)
	for i := range m.Data {
		m.Data[i] = 2*m.Data[i] - 1
	}
	return m
}

func TestQRMatchesReference(t *testing.T) {
	type tc struct {
		name string
		a    *linalg.Matrix
	}
	zeroCol := signedMatrix(50, 9, 3)
	for i := 0; i < zeroCol.Rows; i++ {
		zeroCol.Set(i, 0, 0) // tau[0] == 0 at the first step
		zeroCol.Set(i, 4, 0) // and a zero column met mid-factorization
	}
	strided := signedMatrix(90, 70, 4).View(7, 5, 60, 33)
	nonFinite := signedMatrix(40, 12, 5)
	nonFinite.Set(3, 2, math.Inf(1))
	nonFinite.Set(17, 7, math.Inf(-1))
	nonFinite.Set(20, 9, math.NaN())
	negDiag := signedMatrix(30, 30, 6)
	for i := 0; i < 30; i++ {
		negDiag.Set(i, i, -1-negDiag.At(i, i))
	}
	cases := []tc{
		{"square-7", signedMatrix(7, 7, 1)},
		{"square-64", signedMatrix(64, 64, 2)},
		{"single-column", signedMatrix(30, 1, 7)},
		{"one-by-one", signedMatrix(1, 1, 8)},
		{"tall", signedMatrix(200, 37, 9)},
		{"zero-columns", zeroCol},
		{"negative-diagonal", negDiag},
		{"strided-view", strided},
		{"non-finite", nonFinite},
		// Large enough that the trailing update fans out at workers > 1.
		{"fan-out-400x130", signedMatrix(400, 130, 10)},
		{"fan-out-square-260", signedMatrix(260, 260, 11)},
	}
	for _, c := range cases {
		a := c.a
		b := signedMatrix(a.Rows, 1, 99).Col(0)
		ref, err := refNewQR(a)
		if err != nil {
			t.Fatal(err)
		}
		wantR, wantQ, wantQtb := ref.R(), ref.Q(), ref.QTVec(b)
		wantX, wantErr := ref.Solve(b)
		wantFit, wantFitErr := refLeastSquares(a, b)
		for _, w := range equivWorkers {
			name := fmt.Sprintf("%s/workers=%d", c.name, w)
			f, err := linalg.NewQRP(a, w)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !sameMatrixBits(f.R(), wantR) {
				t.Errorf("%s: R differs from the reference", name)
			}
			if !sameMatrixBits(f.Q(), wantQ) {
				t.Errorf("%s: Q differs from the reference", name)
			}
			if !sameBits(f.QTVec(b), wantQtb) {
				t.Errorf("%s: Qᵀb differs from the reference", name)
			}
			x, err := f.Solve(b)
			if !errors.Is(err, wantErr) || !sameBits(x, wantX) {
				t.Errorf("%s: Solve = %v, %v; reference %v, %v", name, x, err, wantX, wantErr)
			}
			fit, err := linalg.LeastSquaresP(a, b, w)
			if !errors.Is(err, wantFitErr) {
				t.Errorf("%s: LeastSquares error %v, reference %v", name, err, wantFitErr)
			} else if err == nil && (!sameBits(fit.Coefficients, wantFit.Coefficients) ||
				!sameBits([]float64{fit.Residual, fit.RSquared}, []float64{wantFit.Residual, wantFit.RSquared})) {
				t.Errorf("%s: LeastSquares fit differs from the reference", name)
			}
		}
	}
	if _, err := linalg.NewQRP(linalg.NewMatrix(2, 3), 2); err == nil {
		t.Error("NewQRP accepted a wide matrix")
	}
}

// TestQRSerialPathAllocatesPerCallOnly pins what the serving tier relies on:
// admitted queries run their kernels with one worker, and at one worker the
// factorization makes no closure or goroutine per column — its allocations
// do not grow with the column count.
func TestQRSerialPathAllocatesPerCallOnly(t *testing.T) {
	allocs := func(cols int) float64 {
		a := signedMatrix(600, cols, 12)
		return testing.AllocsPerRun(5, func() {
			f, err := linalg.NewQRP(a, 1)
			if err != nil {
				t.Fatal(err)
			}
			f.Release()
		})
	}
	few, many := allocs(8), allocs(160)
	if many > few || many > 2 {
		t.Fatalf("one-worker QR allocates %v objects at 160 columns, %v at 8: want a constant ≤ 2", many, few)
	}
}

func planted(rows, cols int, seed uint64) *linalg.Matrix {
	rng := datagen.NewRNG(seed)
	m := linalg.NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = 8*rng.Float64() - 4
	}
	// Two additive blocks (MSR 0 before noise), one of them slightly noisy.
	rowEff, colEff := make([]float64, rows), make([]float64, cols)
	for i := range rowEff {
		rowEff[i] = 2 * rng.Float64()
	}
	for j := range colEff {
		colEff[j] = 2 * rng.Float64()
	}
	for i := 0; i < rows/2; i += 2 {
		for j := 1; j < cols/2; j += 2 {
			m.Set(i, j, 5+rowEff[i]+colEff[j])
		}
	}
	for i := rows / 2; i < rows; i++ {
		for j := cols / 2; j < cols; j++ {
			m.Set(i, j, -3+rowEff[i]+colEff[j]+0.01*rng.Float64())
		}
	}
	return m
}

func sameBlocks(a, b []bicluster.Bicluster) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !reflect.DeepEqual(a[i].Rows, b[i].Rows) || !reflect.DeepEqual(a[i].Cols, b[i].Cols) ||
			math.Float64bits(a[i].MSR) != math.Float64bits(b[i].MSR) {
			return false
		}
	}
	return true
}

func TestChengChurchMatchesReference(t *testing.T) {
	constant := linalg.NewMatrix(20, 15)
	for i := range constant.Data {
		constant.Data[i] = 2.5
	}
	type tc struct {
		name string
		m    *linalg.Matrix
		opts bicluster.Options
	}
	cases := []tc{
		{"noise-defaults", signedMatrix(60, 40, 21), bicluster.Options{Seed: 1}},
		{"noise-many", signedMatrix(90, 120, 22), bicluster.Options{MaxBiclusters: 12, Seed: 2}},
		{"noise-alpha", signedMatrix(70, 50, 23), bicluster.Options{Alpha: 1.05, MaxBiclusters: 4, Seed: 3}},
		{"expression-like", randomMatrix(80, 64, 24), bicluster.Options{MaxBiclusters: 6, Seed: 4}},
		{"constant", constant, bicluster.Options{Seed: 5}},
		{"planted", planted(60, 48, 25), bicluster.Options{Delta: 0.5, MaxBiclusters: 4, Seed: 6}},
		{"planted-tight", planted(48, 60, 26), bicluster.Options{Delta: 1e-3, MaxBiclusters: 3, Seed: 7}},
		// Delta unreachable above the size floor: single deletion runs out of
		// rows and columns and the search reports no bicluster.
		{"no-bicluster", signedMatrix(24, 18, 27), bicluster.Options{Delta: 1e-12, MinRows: 12, MinCols: 9, Seed: 8}},
		// The floor stops multiple deletion on its first sweep.
		{"min-rows-exit", signedMatrix(30, 40, 28), bicluster.Options{MinRows: 30, MaxBiclusters: 2, Seed: 9}},
		{"min-cols-exit", signedMatrix(40, 30, 29), bicluster.Options{MinCols: 30, MaxBiclusters: 2, Seed: 10}},
		{"tiny", signedMatrix(2, 2, 30), bicluster.Options{Seed: 11}},
		{"one-row", signedMatrix(1, 9, 31), bicluster.Options{Seed: 12}},
	}
	for _, c := range cases {
		want, wantErr := refBiclusterRun(c.m, c.opts)
		got, err := bicluster.Run(c.m, c.opts)
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Errorf("%s: Run error %v, reference %v", c.name, err, wantErr)
			continue
		}
		if !sameBlocks(got, want) {
			t.Errorf("%s: Run found %d blocks that differ from the reference's %d", c.name, len(got), len(want))
		}
		// One search on the unmasked matrix, as colstore's UDF loop calls it.
		opts := c.opts.WithDefaults(c.m)
		one, wantOne := bicluster.FindOne(c.m, opts), refFindOne(c.m, opts)
		if (one == nil) != (wantOne == nil) {
			t.Errorf("%s: FindOne = %v, reference %v", c.name, one, wantOne)
		} else if one != nil && !sameBlocks([]bicluster.Bicluster{*one}, []bicluster.Bicluster{*wantOne}) {
			t.Errorf("%s: FindOne differs from the reference", c.name)
		}
		if c.name == "no-bicluster" && (wantErr == nil || wantOne != nil) {
			t.Errorf("%s: the case no longer reaches the nil exit (reference found %v)", c.name, wantOne)
		}
	}
	if _, err := bicluster.Run(linalg.NewMatrix(0, 4), bicluster.Options{}); err == nil {
		t.Error("Run accepted an empty matrix")
	}
}

// TestChengChurchCancellation cancels a long search from another goroutine:
// it must return the context's error within a sweep and leave no goroutine
// behind (ROADMAP "Real cancellation").
func TestChengChurchCancellation(t *testing.T) {
	m := randomMatrix(1000, 750, 41)
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	// The whole run takes hundreds of milliseconds; 10 ms in, it is inside
	// one of the first searches' sweeps.
	timer := time.AfterFunc(10*time.Millisecond, cancel)
	defer timer.Stop()
	blocks, err := bicluster.RunCtx(ctx, m, bicluster.Options{MaxBiclusters: 50, Seed: 1})
	if blocks != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %d blocks, %v; want context.Canceled", len(blocks), err)
	}
	// The timer's goroutine may still be on its way out; nothing else may be.
	for i := 0; i < 1000 && runtime.NumGoroutine() > before; i++ {
		runtime.Gosched()
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("%d goroutines before the run, %d after it returned", before, after)
	}

	// A context that is already dead stops the search before its first sweep.
	if bc, err := bicluster.FindOneCtx(ctx, m, bicluster.Options{}.WithDefaults(m)); bc != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("FindOneCtx on a dead context = %v, %v", bc, err)
	}
	// An expired deadline surfaces as the context's own error, which the
	// serving tier maps onto engine.ErrDeadlineExceeded.
	dead, cancelDead := context.WithTimeout(context.Background(), 0)
	defer cancelDead()
	if _, err := bicluster.RunCtx(dead, m, bicluster.Options{Seed: 1}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired run returned %v, want context.DeadlineExceeded", err)
	}
}

type noFunctions struct{}

func (noFunctions) FunctionOf(int) int64 { return 0 }

func TestCovarianceThresholdMatchesReference(t *testing.T) {
	for _, n := range []int{2, 3, 17, 120} {
		for _, quantum := range []float64{0, 0.25} { // 0.25: a handful of distinct |cov| values
			cov := linalg.NewMatrix(n, n)
			rng := datagen.NewRNG(uint64(n) + 50)
			for i := 0; i < n; i++ {
				for j := i; j < n; j++ {
					v := 2*rng.Float64() - 1
					if quantum > 0 {
						v = math.Round(v/quantum) * quantum
					}
					cov.Set(i, j, v)
					cov.Set(j, i, v)
				}
			}
			for _, frac := range []float64{1e-9, 0.01, 0.3, 1, 7} {
				got := engine.SummarizeCovariance(cov, frac, noFunctions{}, 1).Threshold
				if want := refCovThreshold(cov, frac); math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("n=%d quantum=%v frac=%v: threshold %v, reference %v", n, quantum, frac, got, want)
				}
			}
		}
	}
}

func TestEnrichmentMatchesReference(t *testing.T) {
	const genes, terms = 300, 70
	rng := datagen.NewRNG(61)
	smooth := make([]float64, genes)
	tied := make([]float64, genes) // six distinct values: heavy ties
	for j := range smooth {
		smooth[j] = rng.NormFloat64()
		tied[j] = float64(int(6 * rng.Float64()))
	}
	allEqual := make([]float64, genes)
	members := make([][]int32, terms)
	for t := range members {
		for g := 0; g < genes; g++ {
			if rng.Float64() < 0.05+0.3*float64(t%5)/5 {
				members[t] = append(members[t], int32(g))
			}
		}
		if len(members[t]) == 0 {
			members[t] = []int32{int32(t)}
		}
	}
	ctx := context.Background()
	for name, means := range map[string][]float64{"smooth": smooth, "tied": tied, "all-equal": allEqual} {
		want, err := refEnrichmentTest(ctx, means, members, 9)
		if err != nil {
			t.Fatal(err)
		}
		for w := 1; w <= 8; w++ {
			got, err := engine.EnrichmentTestP(ctx, means, members, 9, w)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, w, err)
			}
			if got.SampledPatients != want.SampledPatients || len(got.Terms) != len(want.Terms) {
				t.Fatalf("%s workers=%d: %d terms, reference %d", name, w, len(got.Terms), len(want.Terms))
			}
			for i, g := range got.Terms {
				r := want.Terms[i]
				if g.Term != r.Term || !sameBits([]float64{g.Z, g.P}, []float64{r.Z, r.P}) {
					t.Fatalf("%s workers=%d term %d: %+v, reference %+v", name, w, i, g, r)
				}
			}
		}
	}

	// A term with an empty group fails the test; with several such terms the
	// error is the lowest one's, at every worker count, as in the serial loop.
	broken := append([][]int32(nil), members...)
	broken[23] = nil
	broken[58] = nil
	all := make([]int32, genes)
	for g := range all {
		all[g] = int32(g)
	}
	broken[41] = all
	if _, err := refEnrichmentTest(ctx, smooth, broken, 9); !errors.Is(err, stats.ErrEmptyGroup) {
		t.Fatalf("reference on an empty-group term: %v", err)
	}
	for w := 1; w <= 8; w++ {
		ans, err := engine.EnrichmentTestP(ctx, smooth, broken, 9, w)
		if ans != nil || !errors.Is(err, stats.ErrEmptyGroup) {
			t.Fatalf("workers=%d: %v, %v; want ErrEmptyGroup", w, ans, err)
		}
		if want := "engine: enrichment of term 23: " + stats.ErrEmptyGroup.Error(); err.Error() != want {
			t.Fatalf("workers=%d: error %q, want the lowest failing term's: %q", w, err, want)
		}
	}

	// No terms: an answer with no term rows, as before.
	if ans, err := engine.EnrichmentTestP(ctx, smooth, nil, 9, 4); err != nil || ans.Terms != nil {
		t.Fatalf("no terms: %+v, %v", ans, err)
	}
	// A dead context stops every worker at its first term.
	dead, cancel := context.WithCancel(ctx)
	cancel()
	for _, w := range equivWorkers {
		if _, err := engine.EnrichmentTestP(dead, smooth, members, 9, w); !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d on a dead context: %v", w, err)
		}
	}
}
