package stats

import (
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

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

// TieGroups returns the size of every group of tied values in xs with size
// greater than one. Used for the Wilcoxon variance tie correction.
func TieGroups(xs []float64) []int {
	sorted := slices.Clone(xs)
	slices.Sort(sorted)
	var groups []int
	forEachTie(sorted, func(t int) { groups = append(groups, t) })
	return groups
}

func TestRanksNoTies(t *testing.T) {
	r := Ranks([]float64{10, 30, 20})
	want := []float64{1, 3, 2}
	for i := range want {
		if r[i] != want[i] {
			t.Fatalf("ranks=%v", r)
		}
	}
}

func TestRanksWithTies(t *testing.T) {
	r := Ranks([]float64{1, 2, 2, 3})
	want := []float64{1, 2.5, 2.5, 4}
	for i := range want {
		if r[i] != want[i] {
			t.Fatalf("ranks=%v", r)
		}
	}
}

func TestRanksAllTied(t *testing.T) {
	r := Ranks([]float64{5, 5, 5})
	for _, v := range r {
		if v != 2 {
			t.Fatalf("ranks=%v", r)
		}
	}
}

func TestRanksEmpty(t *testing.T) {
	if len(Ranks(nil)) != 0 {
		t.Fatal("ranks of empty should be empty")
	}
}

// Property: ranks always sum to n(n+1)/2, with or without ties.
func TestRanksSumInvariant(t *testing.T) {
	f := func(xs []float64) bool {
		for i, v := range xs {
			if math.IsNaN(v) {
				xs[i] = 0
			}
		}
		r := Ranks(xs)
		s := 0.0
		for _, v := range r {
			s += v
		}
		n := float64(len(xs))
		return almostEqual(s, n*(n+1)/2, 1e-9*(1+n*n))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: ranking is invariant under any strictly increasing transform.
func TestRanksMonotoneInvariance(t *testing.T) {
	f := func(xs []float64) bool {
		for i, v := range xs {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				xs[i] = float64(i)
			}
			// Clamp into a range where the transform below stays strictly
			// increasing in float64 (atan saturates for huge magnitudes).
			xs[i] = math.Mod(xs[i], 1e6)
		}
		r1 := Ranks(xs)
		ys := make([]float64, len(xs))
		for i, v := range xs {
			ys[i] = math.Atan(v/1e6) * 3 // strictly increasing on the clamped range
		}
		r2 := Ranks(ys)
		for i := range r1 {
			if !almostEqual(r1[i], r2[i], 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTieGroups(t *testing.T) {
	g := TieGroups([]float64{1, 2, 2, 3, 3, 3, 4})
	sort.Ints(g)
	if len(g) != 2 || g[0] != 2 || g[1] != 3 {
		t.Fatalf("tie groups=%v", g)
	}
	if TieGroups([]float64{1, 2, 3}) != nil {
		t.Fatal("no ties expected")
	}
}

func TestTwoSidedPBounds(t *testing.T) {
	if TwoSidedP(0) != 1 {
		t.Fatalf("p at z=0 is %v", TwoSidedP(0))
	}
	if p := TwoSidedP(1.959963984540054); !almostEqual(p, 0.05, 1e-9) {
		t.Fatalf("p at z=1.96 is %v", p)
	}
}

func TestWilcoxonKnownExample(t *testing.T) {
	// Classic textbook example with clearly separated groups.
	x := []float64{1, 2, 3}
	y := []float64{10, 11, 12, 13}
	res, err := WilcoxonRankSum(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if res.W != 6 { // ranks 1+2+3
		t.Fatalf("W=%v", res.W)
	}
	if res.U != 0 {
		t.Fatalf("U=%v", res.U)
	}
	if res.Z >= 0 {
		t.Fatalf("low-ranked group should give negative z, got %v", res.Z)
	}
}

func TestWilcoxonHandComputedReference(t *testing.T) {
	// Hand-computed with the standard normal approximation and continuity
	// correction (no ties): x ranks are {11,16,13,6,14,3,12} so W = 75,
	// U = 75 − 7·8/2 = 47, var(U) = 7·9/12·17 = 89.25,
	// z = (47 − 31.5 − 0.5)/√89.25 ≈ 1.58776, p ≈ 0.11236.
	x := []float64{8.5, 9.48, 8.65, 8.16, 8.83, 7.76, 8.63}
	y := []float64{8.27, 8.2, 8.25, 8.14, 9.0, 8.1, 7.2, 8.32, 7.7}
	res, err := WilcoxonRankSum(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if res.W != 75 || res.U != 47 {
		t.Fatalf("W=%v U=%v want 75, 47", res.W, res.U)
	}
	if !almostEqual(res.Z, 1.58776, 1e-4) {
		t.Fatalf("z=%v want ≈1.58776", res.Z)
	}
	if !almostEqual(res.P, 0.11236, 5e-4) {
		t.Fatalf("p=%v want ≈0.11236", res.P)
	}
}

func TestWilcoxonEmptyGroup(t *testing.T) {
	if _, err := WilcoxonRankSum(nil, []float64{1}); err != ErrEmptyGroup {
		t.Fatalf("want ErrEmptyGroup, got %v", err)
	}
}

func TestWilcoxonAllTied(t *testing.T) {
	res, err := WilcoxonRankSum([]float64{3, 3}, []float64{3, 3, 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Z != 0 || res.P != 1 {
		t.Fatalf("identical data should be null result: %+v", res)
	}
}

// Property: swapping the groups negates z and preserves p.
func TestWilcoxonGroupSwapSymmetry(t *testing.T) {
	f := func(seed int64) bool {
		rng := seed
		next := func() float64 {
			rng = rng*6364136223846793005 + 1442695040888963407
			return float64(uint64(rng)>>11) / (1 << 53)
		}
		x := make([]float64, 5+int(uint64(seed)%10))
		y := make([]float64, 4+int(uint64(seed)%7))
		for i := range x {
			x[i] = next()
		}
		for i := range y {
			y[i] = next()
		}
		a, err1 := WilcoxonRankSum(x, y)
		b, err2 := WilcoxonRankSum(y, x)
		if err1 != nil || err2 != nil {
			return false
		}
		return almostEqual(a.Z, -b.Z, 1e-10) && almostEqual(a.P, b.P, 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: the test is invariant to strictly monotone transforms of the data.
func TestWilcoxonMonotoneInvariance(t *testing.T) {
	x := []float64{0.2, 1.5, 3.7, 0.9}
	y := []float64{2.2, 2.9, 0.1, 4.4, 1.1}
	a, _ := WilcoxonRankSum(x, y)
	tx := make([]float64, len(x))
	ty := make([]float64, len(y))
	for i, v := range x {
		tx[i] = math.Exp(v)
	}
	for i, v := range y {
		ty[i] = math.Exp(v)
	}
	b, _ := WilcoxonRankSum(tx, ty)
	if !almostEqual(a.Z, b.Z, 1e-12) || !almostEqual(a.P, b.P, 1e-12) {
		t.Fatal("wilcoxon not rank-invariant")
	}
}

// WilcoxonFromRanks must agree exactly with WilcoxonRankSum.
func TestWilcoxonFromRanksAgrees(t *testing.T) {
	x := []float64{5, 1, 8, 8, 2}
	y := []float64{3, 8, 9, 4, 4, 7}
	direct, err := WilcoxonRankSum(x, y)
	if err != nil {
		t.Fatal(err)
	}
	all := append(append([]float64{}, x...), y...)
	ranks := Ranks(all)
	res, err := WilcoxonFromRanks(ranks[:len(x)], len(all), TieGroups(all))
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(direct.Z, res.Z, 1e-12) || !almostEqual(direct.W, res.W, 1e-12) {
		t.Fatalf("direct %+v vs fromRanks %+v", direct, res)
	}
}

func TestWilcoxonFromRanksRejectsFullGroup(t *testing.T) {
	if _, err := WilcoxonFromRanks([]float64{1, 2}, 2, nil); err != ErrEmptyGroup {
		t.Fatalf("want ErrEmptyGroup, got %v", err)
	}
}

// Enrichment sanity: a group planted at the top of the ranking must get a
// large positive z and a tiny p.
func TestWilcoxonDetectsEnrichment(t *testing.T) {
	n := 200
	all := make([]float64, n)
	for i := range all {
		all[i] = float64(i)
	}
	// In-group: the 20 highest values.
	res, err := WilcoxonRankSum(all[n-20:], all[:n-20])
	if err != nil {
		t.Fatal(err)
	}
	if res.Z < 5 {
		t.Fatalf("expected strong enrichment, z=%v", res.Z)
	}
	if res.P > 1e-6 {
		t.Fatalf("expected tiny p, got %v", res.P)
	}
}

func TestBenjaminiHochbergKnown(t *testing.T) {
	// Classic worked example: p = {0.01, 0.04, 0.03, 0.005} (m=4).
	// Sorted: 0.005(r1)→0.02, 0.01(r2)→0.02, 0.03(r3)→0.04, 0.04(r4)→0.04.
	q := BenjaminiHochberg([]float64{0.01, 0.04, 0.03, 0.005})
	want := []float64{0.02, 0.04, 0.04, 0.02}
	for i := range want {
		if !almostEqual(q[i], want[i], 1e-12) {
			t.Fatalf("q=%v want %v", q, want)
		}
	}
}

// Properties: q-values are monotone in p, bounded by 1, and ≥ the raw p.
func TestBenjaminiHochbergProperties(t *testing.T) {
	f := func(raw []float64) bool {
		ps := make([]float64, 0, len(raw))
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			v = math.Abs(v)
			ps = append(ps, v-math.Floor(v)) // wrap into [0,1)
		}
		q := BenjaminiHochberg(ps)
		for i := range ps {
			if q[i] > 1+1e-12 || q[i] < ps[i]-1e-12 {
				return false
			}
			for j := range ps {
				if ps[i] < ps[j] && q[i] > q[j]+1e-12 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestBenjaminiHochbergEmpty(t *testing.T) {
	if BenjaminiHochberg(nil) != nil {
		t.Fatal("empty input")
	}
}
