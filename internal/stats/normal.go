package stats

import "math"

// TwoSidedP converts a z statistic to a two-sided p-value.
func TwoSidedP(z float64) float64 {
	p := math.Erfc(math.Abs(z) / math.Sqrt2)
	if p > 1 {
		p = 1
	}
	return p
}
