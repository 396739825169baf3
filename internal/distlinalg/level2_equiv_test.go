package distlinalg

import (
	"fmt"
	"math"
	"testing"

	"github.com/genbase/genbase/internal/linalg"
)

// refResidual is LeastSquares' replaced residual pass: one Dot per row, one
// partial per shard, a shard-order sum.
func refResidual(d *DistMatrix, y, beta []float64) float64 {
	ssRes := 0.0
	for s, part := range d.Parts {
		ss := 0.0
		for r := 0; r < part.Rows; r++ {
			pred := linalg.Dot(part.Row(r), beta)
			diff := y[d.Starts[s]+r] - pred
			ss += diff * diff
		}
		ssRes += ss
	}
	return math.Sqrt(ssRes)
}

// refApply is ATAOperator.Apply's replaced shard loop, one Dot and one Axpy
// per row, with the partials summed in shard order.
func refApply(d *DistMatrix, x []float64) []float64 {
	z := make([]float64, d.Cols)
	for _, part := range d.Parts {
		local := make([]float64, d.Cols)
		for r := 0; r < part.Rows; r++ {
			row := part.Row(r)
			yi := linalg.Dot(row, x)
			linalg.Axpy(yi, row, local)
		}
		for j, v := range local {
			z[j] += v
		}
	}
	return z
}

// The four-row kernels must leave the pbdR residual and the distributed AᵀA
// apply bit for bit where the per-row loops had them, at every node count
// and at shard sizes that are not multiples of four.
func TestShardKernelsMatchReference(t *testing.T) {
	for _, shape := range [][2]int{{5, 3}, {23, 9}, {61, 17}, {203, 41}} {
		m := randMatrix(shape[0], shape[1], uint64(shape[0]))
		y := randMatrix(shape[0], 1, uint64(shape[1])).Col(0)
		x := randMatrix(shape[1], 1, 7).Col(0)
		for nodes := 1; nodes <= 4; nodes++ {
			name := fmt.Sprintf("%dx%d/nodes=%d", shape[0], shape[1], nodes)
			_, d := dist(nodes, m)
			fit, err := d.LeastSquares(y)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if got, want := fit.Residual, refResidual(d, y, fit.Coefficients); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%s: residual %v, reference %v", name, got, want)
			}
			op := &ATAOperator{D: d}
			got, want := op.Apply(x), refApply(d, x)
			if op.Err != nil {
				t.Fatalf("%s: %v", name, op.Err)
			}
			for j := range want {
				if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
					t.Fatalf("%s: Apply[%d] %v, reference %v", name, j, got[j], want[j])
				}
			}
		}
	}
}
