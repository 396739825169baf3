package stats

import (
	"math/bits"
	"slices"
)

// SelectKth rearranges a in place and returns the value slices.Sort(a) would
// leave at index k, in linear expected time instead of a full sort. The
// ordering contract is cmp.Less's: NaNs order before every number, and values
// that compare equal (−0 and +0, any two NaNs) are interchangeable — which of
// them is returned is unspecified, exactly as slices.Sort leaves it
// unspecified which lands on index k.
func SelectKth(a []float64, k int) float64 {
	// NaNs go to the front once, so the selection itself can use plain <.
	lo := 0
	for i, v := range a {
		if v != v {
			a[i], a[lo] = a[lo], a[i]
			lo++
		}
	}
	if k < lo {
		return a[k]
	}
	hi := len(a) - 1
	// Quickselect with a median-of-three pivot; after too many lopsided
	// partitions, sort what is left (introselect), so the worst case stays
	// O(n log n).
	budget := bits.Len(uint(len(a)))
	for hi-lo >= 16 {
		if budget == 0 {
			break
		}
		mid := lo + (hi-lo)/2
		p := median3(a[lo], a[mid], a[hi])
		i, j := lo, hi
		for i <= j {
			for a[i] < p {
				i++
			}
			for a[j] > p {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		// a[lo..j] ≤ p ≤ a[i..hi], and anything strictly between is == p.
		size := hi - lo
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return a[k]
		}
		if hi-lo > size-size/8 {
			budget--
		}
	}
	slices.Sort(a[lo : hi+1])
	return a[k]
}

func median3(x, y, z float64) float64 {
	if x > y {
		x, y = y, x
	}
	if y > z {
		y = z
	}
	if x > y {
		y = x
	}
	return y
}
