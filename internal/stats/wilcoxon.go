package stats

import (
	"errors"
	"math"
	"slices"
	"sync"
)

// WilcoxonResult reports a two-sample Wilcoxon rank-sum (Mann–Whitney) test.
type WilcoxonResult struct {
	W float64 // rank-sum statistic of the first group
	U float64 // Mann–Whitney U for the first group
	Z float64 // normal approximation z-score (continuity corrected)
	P float64 // two-sided p-value
}

// ErrEmptyGroup is returned when either sample is empty.
var ErrEmptyGroup = errors.New("stats: wilcoxon requires both groups non-empty")

// sortScratch recycles the combined-population buffer of WilcoxonRankSum: the
// enrichment loop runs one test per GO term over the same population size.
var sortScratch = sync.Pool{New: func() any { return new([]float64) }}

// WilcoxonRankSum tests whether group x tends to rank higher or lower than
// group y, using the normal approximation with tie correction and continuity
// correction. This is Q5's enrichment test: x holds the ranks-source values
// of genes inside a GO term, y those outside.
//
// The combined population is sorted once; mid-ranks and tie groups are both
// read off that one sorted order.
func WilcoxonRankSum(x, y []float64) (*WilcoxonResult, error) {
	n1, n2 := len(x), len(y)
	if n1 == 0 || n2 == 0 {
		return nil, ErrEmptyGroup
	}
	buf := sortScratch.Get().(*[]float64)
	all := append(append((*buf)[:0], x...), y...)
	slices.Sort(all)
	w := 0.0
	for _, v := range x {
		w += midRank(all, v)
	}
	tieSum := 0.0
	forEachTie(all, func(t int) {
		ft := float64(t)
		tieSum += ft*ft*ft - ft
	})
	*buf = all
	sortScratch.Put(buf)
	return rankSumTest(w, n1, n2, tieSum), nil
}

// WilcoxonFromRanks runs the test when mid-ranks over the combined population
// are already known: inRanks are the ranks of the in-group items, n the total
// population size, and ties the tie-group sizes of the full population. The
// engines use this form so that genes are ranked once and then tested against
// every GO term (the paper's step 3–4 of Q5).
func WilcoxonFromRanks(inRanks []float64, n int, ties []int) (*WilcoxonResult, error) {
	n1 := len(inRanks)
	n2 := n - n1
	if n1 == 0 || n2 <= 0 {
		return nil, ErrEmptyGroup
	}
	w := 0.0
	for _, r := range inRanks {
		w += r
	}
	tieSum := 0.0
	for _, t := range ties {
		ft := float64(t)
		tieSum += ft*ft*ft - ft
	}
	return rankSumTest(w, n1, n2, tieSum), nil
}

// rankSumTest turns the first group's rank sum w into the test result, given
// the group sizes and the tie term Σ(t³−t) of the combined population.
func rankSumTest(w float64, n1, n2 int, tieSum float64) *WilcoxonResult {
	fn1, fn2 := float64(n1), float64(n2)
	n := fn1 + fn2
	u := w - fn1*(fn1+1)/2
	meanU := fn1 * fn2 / 2
	// Variance with tie correction: n1·n2/12 · (n+1 − Σ(t³−t)/(n(n−1))).
	varU := fn1 * fn2 / 12 * ((n + 1) - tieSum/(n*(n-1)))
	res := &WilcoxonResult{W: w, U: u}
	if varU <= 0 {
		// All values identical: no evidence either way.
		res.Z = 0
		res.P = 1
		return res
	}
	diff := u - meanU
	// Continuity correction toward the mean.
	switch {
	case diff > 0.5:
		diff -= 0.5
	case diff < -0.5:
		diff += 0.5
	default:
		diff = 0
	}
	res.Z = diff / math.Sqrt(varU)
	res.P = TwoSidedP(res.Z)
	return res
}
