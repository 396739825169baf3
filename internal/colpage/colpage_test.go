package colpage

import (
	"math"
	"math/rand"
	"testing"
)

// EncodedBytes is the in-memory payload size of the encoded form.
func (p *FloatPage) EncodedBytes() int {
	if p.enc == RLE {
		return 12 * len(p.runBits)
	}
	return 8 * len(p.raw)
}

// EncodedBytes is the in-memory payload size of the encoded form.
func (p *IntPage) EncodedBytes() int {
	switch p.enc {
	case RLE:
		return 12 * len(p.runVals)
	case Dict:
		return 8*len(p.dict) + 8*len(p.words)
	case Packed:
		return 8 + 8*len(p.words)
	}
	return 8 * len(p.raw)
}

// intShapes are the column shapes the builder must recognize, each paired
// with the encoding the size heuristic should pick.
func intShapes() map[string]struct {
	vals []int64
	enc  Encoding
} {
	rng := rand.New(rand.NewSource(7))
	sorted := make([]int64, 4000)
	for i := range sorted {
		sorted[i] = int64(i / 40) // 40-row runs
	}
	lowCard := make([]int64, 4000)
	wide := []int64{-1 << 50, 3, 1 << 40, 999999999999, -77}
	for i := range lowCard {
		lowCard[i] = wide[rng.Intn(len(wide))]
	}
	narrow := make([]int64, 4000)
	for i := range narrow {
		narrow[i] = 100000 + rng.Int63n(200) // 200-wide domain, packs at 8 bits
	}
	random := make([]int64, 4000)
	for i := range random {
		random[i] = rng.Int63() - rng.Int63()
	}
	return map[string]struct {
		vals []int64
		enc  Encoding
	}{
		"sorted-runs":  {sorted, RLE},
		"low-card":     {lowCard, Dict},
		"narrow":       {narrow, Packed},
		"random":       {random, Raw},
		"empty":        {nil, Raw},
		"single":       {[]int64{42}, Raw},
		"single-run":   {[]int64{-5, -5, -5, -5, -5, -5, -5, -5}, RLE},
		"extremes":     {[]int64{math.MinInt64, math.MaxInt64, 0, -1, 1, math.MinInt64}, Raw},
		"tiny-domain":  {[]int64{0, 1, 0, 1, 1, 0, 1, 0, 0, 1, 1, 1, 0, 0, 1, 0, 1, 1, 0, 1}, Packed},
		"const-offset": {[]int64{1 << 41, 1<<41 + 1, 1 << 41, 1<<41 + 3, 1<<41 + 2, 1<<41 + 1, 1 << 41, 1<<41 + 3}, Packed},
	}
}

func TestBuildIntEncodings(t *testing.T) {
	for name, tc := range intShapes() {
		p := BuildInt(tc.vals)
		if p.Encoding() != tc.enc {
			t.Errorf("%s: got %v, want %v", name, p.Encoding(), tc.enc)
		}
		if tc.enc != Raw {
			if raw := 8 * len(tc.vals); p.EncodedBytes() >= raw {
				t.Errorf("%s: encoded %dB not smaller than raw %dB", name, p.EncodedBytes(), raw)
			}
		}
	}
}

// checkIntPage asserts every page invariant against the source values:
// decode fixed point, point access, gather, wire round trip, and pushdown
// equivalence with decode-then-filter for a battery of predicates.
func checkIntPage(t *testing.T, p *IntPage, vals []int64) {
	t.Helper()
	if p.Len() != len(vals) {
		t.Fatalf("Len=%d want %d", p.Len(), len(vals))
	}
	back := p.AppendTo(nil)
	if len(back) != len(vals) {
		t.Fatalf("AppendTo len=%d want %d", len(back), len(vals))
	}
	for i, v := range vals {
		if back[i] != v {
			t.Fatalf("AppendTo[%d]=%d want %d (enc %v)", i, back[i], v, p.Encoding())
		}
		if got := p.At(i); got != v {
			t.Fatalf("At(%d)=%d want %d (enc %v)", i, got, v, p.Encoding())
		}
	}

	// Wire round trip is a fixed point.
	blob := p.AppendEncoded(nil)
	q, err := ParseInt(blob)
	if err != nil {
		t.Fatalf("ParseInt: %v", err)
	}
	if q.Encoding() != p.Encoding() || q.Len() != p.Len() {
		t.Fatalf("round trip changed shape: %v/%d vs %v/%d", q.Encoding(), q.Len(), p.Encoding(), p.Len())
	}
	if blob2 := q.AppendEncoded(nil); string(blob2) != string(blob) {
		t.Fatalf("re-encode of parsed page differs (enc %v)", p.Encoding())
	}

	preds := predBattery(vals)
	for _, pg := range []*IntPage{p, q} {
		for _, pred := range preds {
			want := make([]int32, 0, len(vals))
			for i, v := range vals {
				if pred.Eval(v) {
					want = append(want, int32(i))
				}
			}
			got := pg.Select(pred, nil)
			if !equalSel(got, want) {
				t.Fatalf("Select(%+v) enc %v: got %d rows want %d", pred, pg.Encoding(), len(got), len(want))
			}
			if got2 := pg.SelectFn(pred.Eval, nil); !equalSel(got2, want) {
				t.Fatalf("SelectFn(%+v) enc %v mismatch", pred, pg.Encoding())
			}
			// Gather of the selection matches a direct filter's values.
			vg := pg.Gather(got, nil)
			for k, i := range want {
				if vg[k] != vals[i] {
					t.Fatalf("Gather[%d]=%d want %d", k, vg[k], vals[i])
				}
			}
			// Refining the all-rows selection equals selecting.
			all := appendAll(nil, len(vals))
			if ref := pg.RefinePred(pred, all); !equalSel(ref, want) {
				t.Fatalf("RefinePred(%+v) enc %v mismatch", pred, pg.Encoding())
			}
			all = appendAll(nil, len(vals))
			if ref := pg.Refine(pred.Eval, all); !equalSel(ref, want) {
				t.Fatalf("Refine(%+v) enc %v mismatch", pred, pg.Encoding())
			}
		}
	}
}

// predBattery builds LT/EQ predicates around the data's own values plus
// absent and extreme thresholds — enough to hit the zone fast paths, the
// SWAR probes, and the per-lane scans.
func predBattery(vals []int64) []Pred {
	preds := []Pred{
		{LT, 0}, {EQ, 0}, {LT, math.MinInt64}, {LT, math.MaxInt64},
		{EQ, math.MaxInt64}, {EQ, -3},
	}
	if len(vals) > 0 {
		mn, mx := vals[0], vals[0]
		for _, v := range vals {
			mn, mx = min(mn, v), max(mx, v)
		}
		mid := vals[len(vals)/2]
		preds = append(preds,
			Pred{EQ, mn}, Pred{EQ, mx}, Pred{EQ, mid},
			Pred{LT, mn}, Pred{LT, mx}, Pred{LT, mid})
		if mx < math.MaxInt64 {
			preds = append(preds, Pred{LT, mx + 1}, Pred{EQ, mx + 1})
		}
		if mn > math.MinInt64 {
			preds = append(preds, Pred{LT, mn + 1}, Pred{EQ, mn - 1})
		}
	}
	return preds
}

func equalSel(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestIntPageProperties(t *testing.T) {
	for name, tc := range intShapes() {
		t.Run(name, func(t *testing.T) { checkIntPage(t, BuildInt(tc.vals), tc.vals) })
	}
}

// floatShapes stress the bit-pattern RLE: NaN payloads, infinities, and
// signed zeros must round-trip bit-exactly.
func floatShapes() map[string][]float64 {
	nan1 := math.NaN()
	nan2 := math.Float64frombits(0x7ff8000000000099) // distinct NaN payload
	rng := rand.New(rand.NewSource(9))
	random := make([]float64, 1000)
	for i := range random {
		random[i] = rng.NormFloat64()
	}
	runs := make([]float64, 1000)
	for i := range runs {
		runs[i] = float64(i / 100)
	}
	nanRuns := make([]float64, 600)
	for i := range nanRuns {
		switch (i / 50) % 3 {
		case 0:
			nanRuns[i] = nan1
		case 1:
			nanRuns[i] = math.Inf(-1)
		default:
			nanRuns[i] = math.Copysign(0, -1)
		}
	}
	return map[string][]float64{
		"random":   random,
		"runs":     runs,
		"nan-runs": nanRuns,
		"empty":    nil,
		"single":   {3.25},
		"specials": {nan1, nan2, math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), math.MaxFloat64, math.SmallestNonzeroFloat64},
	}
}

func TestFloatPageProperties(t *testing.T) {
	for name, vals := range floatShapes() {
		t.Run(name, func(t *testing.T) {
			p := BuildFloat(vals)
			checkFloatPage(t, p, vals)
			if name == "runs" || name == "nan-runs" {
				if p.Encoding() != RLE {
					t.Errorf("want RLE, got %v", p.Encoding())
				}
			}
		})
	}
}

func checkFloatPage(t *testing.T, p *FloatPage, vals []float64) {
	t.Helper()
	if p.Len() != len(vals) {
		t.Fatalf("Len=%d want %d", p.Len(), len(vals))
	}
	sameBits := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	back := p.AppendTo(nil)
	if len(back) != len(vals) {
		t.Fatalf("AppendTo len=%d want %d", len(back), len(vals))
	}
	sel := make([]int32, 0, len(vals))
	for i, v := range vals {
		if !sameBits(back[i], v) || !sameBits(p.At(i), v) {
			t.Fatalf("decode[%d]=%x want %x (enc %v)", i, math.Float64bits(back[i]), math.Float64bits(v), p.Encoding())
		}
		if i%3 == 0 {
			sel = append(sel, int32(i))
		}
	}
	got := p.Gather(sel, nil)
	for k, i := range sel {
		if !sameBits(got[k], vals[i]) {
			t.Fatalf("Gather[%d] mismatch", k)
		}
	}
	blob := p.AppendEncoded(nil)
	q, err := ParseFloat(blob)
	if err != nil {
		t.Fatalf("ParseFloat: %v", err)
	}
	if blob2 := q.AppendEncoded(nil); string(blob2) != string(blob) {
		t.Fatal("re-encode of parsed page differs")
	}
	for i, v := range vals {
		if !sameBits(q.At(i), v) {
			t.Fatalf("parsed At(%d) mismatch", i)
		}
	}
}

// TestParseRejectsCorruption truncates and mutates valid blobs: every
// outcome must be a clean error or a page that re-encodes consistently —
// never a panic (the fuzzers push much further).
func TestParseRejectsCorruption(t *testing.T) {
	blobs := [][]byte{}
	for _, tc := range intShapes() {
		blobs = append(blobs, BuildInt(tc.vals).AppendEncoded(nil))
	}
	for _, vals := range floatShapes() {
		blobs = append(blobs, BuildFloat(vals).AppendEncoded(nil))
	}
	for _, blob := range blobs {
		for cut := 0; cut < len(blob); cut++ {
			if _, err := ParseInt(blob[:cut]); err == nil && blob[0] == kindInt {
				t.Fatalf("truncated int blob at %d parsed", cut)
			}
			if _, err := ParseFloat(blob[:cut]); err == nil && blob[0] == kindFloat {
				t.Fatalf("truncated float blob at %d parsed", cut)
			}
		}
		for i := range blob {
			mut := append([]byte(nil), blob...)
			mut[i] ^= 0x41
			ParseInt(mut)   // must not panic
			ParseFloat(mut) // must not panic
		}
	}
	if _, err := ParseInt([]byte{kindFloat, 0, 0}); err == nil {
		t.Fatal("int parse accepted float kind")
	}
	if _, err := ParseFloat([]byte{kindInt, 0, 0}); err == nil {
		t.Fatal("float parse accepted int kind")
	}
}

func TestEncodingString(t *testing.T) {
	for e, want := range map[Encoding]string{Raw: "raw", RLE: "rle", Dict: "dict", Packed: "packed", 99: "unknown"} {
		if e.String() != want {
			t.Errorf("Encoding(%d).String()=%q want %q", e, e.String(), want)
		}
	}
}
