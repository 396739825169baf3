// Package stats implements the statistical routines GenBase's Q5 (gene-set
// enrichment) relies on: mid-rank ranking with tie handling, the Wilcoxon
// rank-sum test with normal approximation and tie correction, and the normal
// distribution helpers they require. It stands in for R's stats package.
package stats

import (
	"cmp"
	"slices"
	"sort"
)

// Ranks returns the 1-based mid-ranks of xs: tied values receive the average
// of the ranks they would span. This is the standard ranking used by the
// Wilcoxon test (and by R's rank()).
func Ranks(xs []float64) []float64 {
	sorted := slices.Clone(xs)
	slices.Sort(sorted)
	ranks := make([]float64, len(xs))
	for i, v := range xs {
		ranks[i] = midRank(sorted, v)
	}
	return ranks
}

// midRank returns the mid-rank of v, which must occur in sorted: its run of
// equal values spans 0-based positions [lo, hi) and shares rank
// ((lo+1) + hi)/2.
func midRank(sorted []float64, v float64) float64 {
	lo, _ := slices.BinarySearch(sorted, v)
	hi := lo + sort.Search(len(sorted)-lo, func(i int) bool { return cmp.Compare(sorted[lo+i], v) > 0 })
	return float64(lo+hi+1) / 2
}

// TieGroups returns the size of every group of tied values in xs with size
// greater than one. Used for the Wilcoxon variance tie correction.
func TieGroups(xs []float64) []int {
	sorted := slices.Clone(xs)
	slices.Sort(sorted)
	var groups []int
	forEachTie(sorted, func(t int) { groups = append(groups, t) })
	return groups
}

// forEachTie calls fn with the size of every run of two or more equal values
// in sorted, in ascending order of value.
func forEachTie(sorted []float64, fn func(t int)) {
	n := len(sorted)
	for i := 0; i < n; {
		j := i
		for j+1 < n && sorted[j+1] == sorted[i] {
			j++
		}
		if j > i {
			fn(j - i + 1)
		}
		i = j + 1
	}
}
