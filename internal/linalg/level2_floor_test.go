package linalg

import (
	"os"
	"testing"
	"time"
)

// TestATAApplyPerfFloor asserts that the one-worker AᵀA apply, Q4's inner
// loop, stays at least 1.5× faster than the same apply over the replaced
// one-row-at-a-time bodies (level2_ref_test.go) at the medium preset's Q4
// shape, 1000×203. It first re-checks the two agree bit for bit on the
// timed operands, so a floor failure is never a masked correctness failure.
// A ratio of two timings taken interleaved on one host does not depend on
// the host's speed; gated behind GENBASE_PERF_FLOOR=1 because wall-clock
// assertions are only meaningful on an otherwise idle host.
func TestATAApplyPerfFloor(t *testing.T) {
	if os.Getenv("GENBASE_PERF_FLOOR") == "" {
		t.Skip("set GENBASE_PERF_FLOOR=1 to run the wall-clock kernel floor")
	}
	a := randMatrix(1000, 203, 41)
	x := randMatrix(203, 1, 42).Col(0)
	op := ATAOperator{A: a, Workers: 1}
	sameLevel2Bits(t, "ATAOperator.Apply 1000×203", 1, op.Apply(x), refATAApply(a, x, 1))

	// Best of five interleaved rounds of 20 applies each.
	const reps = 20
	refBest, kernelBest := time.Duration(1<<62), time.Duration(1<<62)
	for r := 0; r < 5; r++ {
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			PutSlice(refATAApply(a, x, 1))
		}
		t1 := time.Now()
		for i := 0; i < reps; i++ {
			PutSlice(op.Apply(x))
		}
		t2 := time.Now()
		refBest, kernelBest = min(refBest, t1.Sub(t0)), min(kernelBest, t2.Sub(t1))
	}
	ratio := float64(refBest) / float64(kernelBest)
	t.Logf("ATAOperator.Apply 1000×203, 1 worker: reference %v, kernel %v per %d (%.2fx, floor 1.5x)", refBest, kernelBest, reps, ratio)
	if ratio < 1.5 {
		t.Errorf("perf floor broken: ATAOperator.Apply is %.2fx its reference bodies, floor 1.5x", ratio)
	}
}
