// Kernel perf-floor smoke (DESIGN.md §17): the packed register-tiled GEMM
// must not regress back under the naive triple loop — the exact failure the
// pre-packing "blocked" kernel shipped with (CHANGES.md records it).
// Gated behind GENBASE_PERF_FLOOR=1 because wall-clock assertions are only
// meaningful on an otherwise idle host; CI sets the gate.
//
// The second kernel pass (DESIGN.md §9) adds RATIO floors for the non-GEMM
// kernels against the bodies they replaced (kernel_ref_test.go), at one
// worker and at the medium preset's shapes: a ratio of two timings taken
// interleaved on the same host does not depend on the host's speed.
package genbase

import (
	"math"
	"os"
	"testing"
	"time"

	"github.com/genbase/genbase/internal/bicluster"
	"github.com/genbase/genbase/internal/engine"
	"github.com/genbase/genbase/internal/linalg"
)

// TestKernelPerfFloor512 asserts packed-serial ns/op ≤ naive ns/op at
// 512×512×512 (best of three, interleaved) at the compiled tile shape. It
// also re-checks the bitwise contract on the same operands so a floor
// failure is never confused with a correctness failure.
func TestKernelPerfFloor512(t *testing.T) {
	if os.Getenv("GENBASE_PERF_FLOOR") == "" {
		t.Skip("set GENBASE_PERF_FLOOR=1 to run the wall-clock kernel floor")
	}
	a := randomMatrix(512, 512, 26)
	b := randomMatrix(512, 512, 27)
	t.Logf("tiles: %s", linalg.KernelTileInfo())

	want := linalg.MulNaive(a, b) // warmup naive
	got := linalg.MulBlockedP(a, b, 1)
	if !bitsEqual(got, want) {
		t.Fatal("packed GEMM is not bitwise identical to MulNaive at 512³")
	}

	naive, packed := bestOfThree(func() { linalg.MulNaive(a, b) }, func() { linalg.MulBlockedP(a, b, 1) })
	t.Logf("naive %v, packed-serial %v (%.2fx)", naive, packed,
		float64(naive)/float64(packed))
	if packed > naive {
		t.Fatalf("perf floor broken: packed-serial %v slower than naive %v at 512³",
			packed, naive)
	}
}

// bestOfThree times the two bodies alternately, three rounds, and returns
// each one's fastest round.
func bestOfThree(ref, kernel func()) (refBest, kernelBest time.Duration) {
	refBest, kernelBest = 1<<62, 1<<62
	for r := 0; r < 3; r++ {
		t0 := time.Now()
		ref()
		t1 := time.Now()
		kernel()
		t2 := time.Now()
		refBest, kernelBest = min(refBest, t1.Sub(t0)), min(kernelBest, t2.Sub(t1))
	}
	return refBest, kernelBest
}

// TestKernelPerfFloorSecondPass asserts that the one-worker QR, Cheng–Church
// and top-k kernels stay the stated factor ahead of their reference bodies.
// Each floor first re-checks bit equality on the timed operands, so a floor
// failure is never a masked correctness failure. The floors sit well under
// the ratios recorded in CHANGES.md when the kernels landed (3.9×, 4.8×,
// 5.2×): they catch a kernel falling back to the replaced loop's cost, not a
// noisy host.
func TestKernelPerfFloorSecondPass(t *testing.T) {
	if os.Getenv("GENBASE_PERF_FLOOR") == "" {
		t.Skip("set GENBASE_PERF_FLOOR=1 to run the wall-clock kernel floor")
	}
	f := kernelInputs(t)
	floor := func(name string, want float64, ref, kernel func()) {
		t.Helper()
		refBest, kernelBest := bestOfThree(ref, kernel)
		ratio := float64(refBest) / float64(kernelBest)
		t.Logf("%s: reference %v, kernel %v (%.2fx, floor %.1fx)", name, refBest, kernelBest, ratio, want)
		if ratio < want {
			t.Errorf("perf floor broken: %s is %.2fx its reference body, floor %.1fx", name, ratio, want)
		}
	}

	wantFit, err := refLeastSquares(f.design, f.y)
	if err != nil {
		t.Fatal(err)
	}
	fit, err := linalg.LeastSquaresP(f.design, f.y, 1)
	if err != nil || !sameBits(fit.Coefficients, wantFit.Coefficients) {
		t.Fatalf("QR least squares differs from its reference at %d×%d (err %v)", f.design.Rows, f.design.Cols, err)
	}
	floor("QR least squares 1000×204", 1.5,
		func() { refLeastSquares(f.design, f.y) },
		func() { linalg.LeastSquaresP(f.design, f.y, 1) })

	opts := bicluster.Options{MaxBiclusters: engine.DefaultParams().MaxBiclusters, Seed: 1}
	wantBlocks, err := refBiclusterRun(f.expr, opts)
	if err != nil {
		t.Fatal(err)
	}
	if blocks, err := bicluster.Run(f.expr, opts); err != nil || !sameBlocks(blocks, wantBlocks) {
		t.Fatalf("Cheng–Church differs from its reference at %d×%d (err %v)", f.expr.Rows, f.expr.Cols, err)
	}
	floor("Cheng–Church 1000×750", 1.5,
		func() { refBiclusterRun(f.expr, opts) },
		func() { bicluster.Run(f.expr, opts) })

	// The whole of today's summary against the replaced threshold step alone.
	frac := engine.DefaultParams().CovarianceTopFrac
	summarize := func() *engine.CovarianceAnswer {
		return engine.SummarizeCovariance(f.cov, frac, noFunctions{}, f.expr.Rows)
	}
	if got, want := summarize().Threshold, refCovThreshold(f.cov, frac); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("top-k threshold %v differs from its reference %v at 750²", got, want)
	}
	floor("top-k threshold 750²", 2,
		func() { refCovThreshold(f.cov, frac) },
		func() { summarize() })
}

func bitsEqual(a, b *linalg.Matrix) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := 0; i < a.Rows; i++ {
		ra, rb := a.Row(i), b.Row(i)
		for j := range ra {
			va, vb := ra[j], rb[j]
			if va != vb && (va == va || vb == vb) { // NaN == NaN bit-agnostic: both NaN ok
				return false
			}
		}
	}
	return true
}
