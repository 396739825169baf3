package stats

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// sameOrderStat reports whether got can stand where slices.Sort left want:
// equal under cmp.Compare, which makes −0/+0 and any two NaNs interchangeable.
func sameOrderStat(got, want float64) bool {
	return got == want || (got != got && want != want)
}

// checkSelect compares SelectKth with the element a full sort leaves at k,
// and checks that a is still the same multiset, partitioned around k.
func checkSelect(t *testing.T, a []float64, k int) {
	t.Helper()
	sorted := slices.Clone(a)
	slices.Sort(sorted)
	work := slices.Clone(a)
	got := SelectKth(work, k)
	if !sameOrderStat(got, sorted[k]) {
		t.Fatalf("SelectKth(%v, %d) = %v, sorted[k] = %v", a, k, got, sorted[k])
	}
	if !sameOrderStat(work[k], sorted[k]) {
		t.Fatalf("a[k] = %v after SelectKth, want %v", work[k], sorted[k])
	}
	slices.Sort(work)
	for i := range work {
		if !sameOrderStat(work[i], sorted[i]) {
			t.Fatalf("SelectKth changed the multiset: %v vs %v", work, sorted)
		}
	}
}

func TestSelectKthMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	gens := map[string]func(n int) []float64{
		"uniform": func(n int) []float64 {
			a := make([]float64, n)
			for i := range a {
				a[i] = rng.Float64()
			}
			return a
		},
		"duplicates": func(n int) []float64 {
			a := make([]float64, n)
			for i := range a {
				a[i] = float64(rng.Intn(5))
			}
			return a
		},
		"all-equal": func(n int) []float64 {
			a := make([]float64, n)
			for i := range a {
				a[i] = 3.5
			}
			return a
		},
		"signed-zeros": func(n int) []float64 {
			a := make([]float64, n)
			for i := range a {
				if rng.Intn(2) == 0 {
					a[i] = math.Copysign(0, -1)
				}
			}
			return a
		},
		"nans-and-infs": func(n int) []float64 {
			a := make([]float64, n)
			for i := range a {
				switch rng.Intn(6) {
				case 0:
					a[i] = math.NaN()
				case 1:
					a[i] = math.Inf(1 - 2*rng.Intn(2))
				default:
					a[i] = rng.NormFloat64()
				}
			}
			return a
		},
		"ascending": func(n int) []float64 {
			a := make([]float64, n)
			for i := range a {
				a[i] = float64(i)
			}
			return a
		},
		"descending": func(n int) []float64 {
			a := make([]float64, n)
			for i := range a {
				a[i] = float64(n - i)
			}
			return a
		},
		"organ-pipe": func(n int) []float64 {
			a := make([]float64, n)
			for i := range a {
				a[i] = float64(min(i, n-i))
			}
			return a
		},
	}
	for name, gen := range gens {
		for _, n := range []int{1, 2, 15, 16, 17, 100, 1000, 5000} {
			a := gen(n)
			for _, k := range []int{0, n - 1, n / 2, rng.Intn(n), rng.Intn(n)} {
				t.Run(name, func(t *testing.T) { checkSelect(t, a, k) })
			}
		}
	}
}

// FuzzSelectKth decodes the input as little-endian float64s (any bit
// pattern: NaN payloads, subnormals, signed zeros) and a selector for k.
func FuzzSelectKth(f *testing.F) {
	enc := func(vs ...float64) []byte {
		b := make([]byte, 0, 8*len(vs))
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add(enc(1), uint16(0))
	f.Add(enc(2, 1), uint16(1))
	f.Add(enc(3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3), uint16(7))
	f.Add(enc(0, math.Copysign(0, -1), 0, math.Copysign(0, -1)), uint16(2))
	f.Add(enc(math.NaN(), 1, math.NaN(), -1, math.Inf(1), math.Inf(-1)), uint16(3))
	f.Add(enc(math.NaN(), math.NaN()), uint16(1))
	f.Add(enc(20, 19, 18, 17, 16, 15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0, -1, -2), uint16(11))
	f.Add(enc(5e-324, -5e-324, math.MaxFloat64, -math.MaxFloat64, 1, 1, 2, 2), uint16(65535))
	f.Fuzz(func(t *testing.T, raw []byte, sel uint16) {
		n := len(raw) / 8
		if n == 0 {
			return
		}
		a := make([]float64, n)
		for i := range a {
			a[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		checkSelect(t, a, int(sel)%n)
	})
}

// The rewritten ranking reads mid-ranks and tie groups off one sorted copy;
// both must agree with the definition on tied input.
func TestRanksAndTieGroupsHeavyTies(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 2, 50, 400} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(rng.Intn(4))
		}
		ranks := Ranks(xs)
		ties := TieGroups(xs)
		sumTies := 0
		for _, g := range ties {
			sumTies += g
		}
		counts := map[float64]int{}
		for _, v := range xs {
			counts[v]++
		}
		wantTied := 0
		for _, c := range counts {
			if c > 1 {
				wantTied += c
			}
		}
		if sumTies != wantTied {
			t.Fatalf("n=%d: tie groups %v cover %d values, want %d", n, ties, sumTies, wantTied)
		}
		for i, v := range xs {
			below := 0
			for _, u := range xs {
				if u < v {
					below++
				}
			}
			// Tied values share the mean of ranks below+1 .. below+count.
			if want := float64(2*below+counts[v]+1) / 2; ranks[i] != want {
				t.Fatalf("n=%d: rank of xs[%d]=%v is %v, want %v", n, i, v, ranks[i], want)
			}
		}
	}
}
