package colpage

import "math"

// FloatPage is one compressed float64 column segment. Runs are detected
// and compared on IEEE-754 bit patterns, so NaN payloads and signed zeros
// round-trip bit-exactly (a NaN != NaN value comparison would split every
// NaN run into singletons and could never merge them back).
type FloatPage struct {
	enc Encoding // Raw or RLE
	n   int

	raw []float64

	runBits []uint64 // RLE: bit pattern per run
	runEnds []int32  // RLE: exclusive end position per run
}

// BuildFloat compresses one float column segment: RLE on bit patterns when
// runs pay for themselves, raw otherwise. The input slice is not retained.
func BuildFloat(vals []float64) *FloatPage {
	p := &FloatPage{n: len(vals)}
	if len(vals) == 0 {
		p.enc = Raw
		return p
	}
	runs := 1
	for i := 1; i < len(vals); i++ {
		if math.Float64bits(vals[i]) != math.Float64bits(vals[i-1]) {
			runs++
		}
	}
	if 12*runs < 8*len(vals) {
		p.enc = RLE
		for i, v := range vals {
			b := math.Float64bits(v)
			if i == 0 || b != p.runBits[len(p.runBits)-1] {
				p.runBits = append(p.runBits, b)
				p.runEnds = append(p.runEnds, int32(i))
			}
			p.runEnds[len(p.runEnds)-1] = int32(i + 1)
		}
		return p
	}
	p.enc = Raw
	p.raw = append([]float64(nil), vals...)
	return p
}

// Len is the number of rows in the segment.
func (p *FloatPage) Len() int { return p.n }

// Encoding reports the chosen encoding.
func (p *FloatPage) Encoding() Encoding { return p.enc }

// At decodes one value.
func (p *FloatPage) At(i int) float64 {
	if p.enc == RLE {
		lo, hi := 0, len(p.runEnds)-1
		for lo < hi {
			mid := (lo + hi) / 2
			if int32(i) < p.runEnds[mid] {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		return math.Float64frombits(p.runBits[lo])
	}
	return p.raw[i]
}

// AppendTo materializes the whole segment, appending to out.
func (p *FloatPage) AppendTo(out []float64) []float64 {
	if p.enc == RLE {
		start := int32(0)
		for r, b := range p.runBits {
			v := math.Float64frombits(b)
			for ; start < p.runEnds[r]; start++ {
				out = append(out, v)
			}
		}
		return out
	}
	return append(out, p.raw...)
}

// Gather decodes the values at the selected (ascending) positions,
// appending to out.
func (p *FloatPage) Gather(sel []int32, out []float64) []float64 {
	if p.enc == RLE {
		r := 0
		for _, i := range sel {
			for p.runEnds[r] <= i {
				r++
			}
			out = append(out, math.Float64frombits(p.runBits[r]))
		}
		return out
	}
	for _, i := range sel {
		out = append(out, p.raw[i])
	}
	return out
}
