package main

import (
	"math"
	"slices"
	"sort"
	"time"
)

// quantile is the linearly interpolated q-quantile of xs (the definition
// Python's statistics.quantiles(method="inclusive") and numpy use). It sorts
// a copy; an empty input yields 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// fastest is the closed-loop latency estimator: the minimum over repeated
// identical passes. On a shared host interference only ever adds time, and
// it comes in episodes of several seconds, so the fastest pass moves far
// less between runs than the median or even the lower quartile does (see
// README.md, "Why the fastest pass").
func fastest(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return slices.Min(xs)
}

// geomean gives every cell one voice: a 2.7 s Hadoop covariance and a 10 ms
// column-store regression move the mean by the same factor for the same
// relative change.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func maxOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return slices.Max(xs)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// ratio is a/b, 0 when b is 0 (a counter pair that never fired).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
