package colpage

import "math/bits"

// IntPage is one compressed int64 column segment.
type IntPage struct {
	enc Encoding
	n   int

	minVal, maxVal int64 // zone bounds over the segment (undefined when n==0)

	raw []int64 // Raw

	runVals []int64 // RLE: value per run
	runEnds []int32 // RLE: exclusive end position per run

	dict []int64 // Dict: distinct values in first-appearance order

	// Bit-packed code stream shared by Dict and Packed: lane i is bits
	// [i*width, (i+1)*width) of words, little-endian lanes within each
	// 64-bit word. width is a power of two in {1,2,4,8,16,32} so lanes
	// never straddle words and whole-word SWAR probes stay exact.
	width uint8
	words []uint64

	ref int64 // Packed: frame-of-reference minimum
}

// laneWidth rounds a required bit count up to the next power-of-two lane
// width; 0 means the domain needs more than 32 bits and packing is off.
func laneWidth(need int) uint8 {
	for _, w := range [...]uint8{1, 2, 4, 8, 16, 32} {
		if need <= int(w) {
			return w
		}
	}
	return 0
}

// packLanes bit-packs codes into 64-bit words at the given lane width.
func packLanes(codes []uint64, width uint8) []uint64 {
	per := 64 / int(width)
	words := make([]uint64, (len(codes)+per-1)/per)
	for i, c := range codes {
		words[i/per] |= c << (uint(i%per) * uint(width))
	}
	return words
}

// lane extracts code i from a packed word stream (width ≤ 32, so the mask
// never overflows).
func lane(words []uint64, i int, width uint8) uint64 {
	per := 64 / int(width)
	return (words[i/per] >> (uint(i%per) * uint(width))) & (uint64(1)<<width - 1)
}

// dictBudget caps dictionary cardinality: beyond it the per-row code width
// stops paying for the dictionary table and raw or packed wins anyway.
const dictBudget = 4096

// BuildInt compresses one column segment, choosing the encoding with the
// smallest serialized size (ties prefer RLE, then Dict, then Packed —
// the encodings with the cheapest pushdown). The input slice is not
// retained.
func BuildInt(vals []int64) *IntPage {
	p := &IntPage{n: len(vals)}
	if len(vals) == 0 {
		p.enc = Raw
		return p
	}

	// One pass: zone bounds, run count, and (capped) distinct values.
	p.minVal, p.maxVal = vals[0], vals[0]
	runs := 1
	dictIdx := make(map[int64]int, 16)
	dictIdx[vals[0]] = 0
	dictVals := []int64{vals[0]}
	for i := 1; i < len(vals); i++ {
		v := vals[i]
		if v < p.minVal {
			p.minVal = v
		}
		if v > p.maxVal {
			p.maxVal = v
		}
		if v != vals[i-1] {
			runs++
		}
		if dictVals != nil {
			if _, ok := dictIdx[v]; !ok {
				if len(dictVals) >= dictBudget {
					dictVals = nil // cardinality too high; stop tracking
				} else {
					dictIdx[v] = len(dictVals)
					dictVals = append(dictVals, v)
				}
			}
		}
	}

	rawBytes := 8 * len(vals)
	rleBytes := 12 * runs
	dictWidth, dictBytes := uint8(0), rawBytes+1
	if dictVals != nil {
		// Len(card-1) is 0 for a single-entry dictionary; one lane is
		// still needed, and laneWidth maps need 0 to width 1.
		dictWidth = laneWidth(max(bits.Len(uint(len(dictVals)-1)), 1))
		dictBytes = 8*len(dictVals) + 1 + packedByteLen(len(vals), dictWidth)
	}
	// spread is exact in uint64 even when max-min overflows int64; widths
	// above 32 bits make laneWidth return 0 and disable packing.
	spread := uint64(p.maxVal) - uint64(p.minVal)
	packWidth, packBytes := laneWidth(max(bits.Len64(spread), 1)), rawBytes+1
	if packWidth != 0 {
		packBytes = 8 + 1 + packedByteLen(len(vals), packWidth)
	}

	best, bestBytes := Raw, rawBytes
	if packBytes < bestBytes {
		best, bestBytes = Packed, packBytes
	}
	if dictBytes < bestBytes {
		best, bestBytes = Dict, dictBytes
	}
	if rleBytes < bestBytes {
		best = RLE
	}

	switch best {
	case RLE:
		p.enc = RLE
		for i, v := range vals {
			if i == 0 || v != vals[i-1] {
				p.runVals = append(p.runVals, v)
				p.runEnds = append(p.runEnds, int32(i))
			}
			p.runEnds[len(p.runEnds)-1] = int32(i + 1)
		}
	case Dict:
		p.enc = Dict
		p.dict = dictVals
		p.width = dictWidth
		codes := make([]uint64, len(vals))
		for i, v := range vals {
			codes[i] = uint64(dictIdx[v])
		}
		p.words = packLanes(codes, p.width)
	case Packed:
		p.enc = Packed
		p.ref = p.minVal
		p.width = packWidth
		codes := make([]uint64, len(vals))
		for i, v := range vals {
			codes[i] = uint64(v - p.ref)
		}
		p.words = packLanes(codes, p.width)
	default:
		p.enc = Raw
		p.raw = append([]int64(nil), vals...)
	}
	return p
}

func packedByteLen(n int, width uint8) int {
	per := 64 / int(width)
	return 8 * ((n + per - 1) / per)
}

// Len is the number of rows in the segment.
func (p *IntPage) Len() int { return p.n }

// Encoding reports the chosen encoding.
func (p *IntPage) Encoding() Encoding { return p.enc }

// At decodes one value.
func (p *IntPage) At(i int) int64 {
	switch p.enc {
	case RLE:
		return p.runVals[p.runIdx(i)]
	case Dict:
		return p.dict[lane(p.words, i, p.width)]
	case Packed:
		return p.ref + int64(lane(p.words, i, p.width))
	}
	return p.raw[i]
}

// runIdx binary-searches the run covering position i.
func (p *IntPage) runIdx(i int) int {
	lo, hi := 0, len(p.runEnds)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if int32(i) < p.runEnds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// AppendTo materializes the whole segment, appending to out.
func (p *IntPage) AppendTo(out []int64) []int64 {
	switch p.enc {
	case RLE:
		start := int32(0)
		for r, v := range p.runVals {
			for ; start < p.runEnds[r]; start++ {
				out = append(out, v)
			}
		}
	case Dict:
		for i := 0; i < p.n; i++ {
			out = append(out, p.dict[lane(p.words, i, p.width)])
		}
	case Packed:
		for i := 0; i < p.n; i++ {
			out = append(out, p.ref+int64(lane(p.words, i, p.width)))
		}
	default:
		out = append(out, p.raw...)
	}
	return out
}

// Gather decodes the values at the selected positions, appending to out.
func (p *IntPage) Gather(sel []int32, out []int64) []int64 {
	switch p.enc {
	case RLE:
		// Selections are ascending, so walk the runs forward instead of
		// binary-searching every position.
		r := 0
		for _, i := range sel {
			for p.runEnds[r] <= i {
				r++
			}
			out = append(out, p.runVals[r])
		}
	case Dict:
		for _, i := range sel {
			out = append(out, p.dict[lane(p.words, int(i), p.width)])
		}
	case Packed:
		for _, i := range sel {
			out = append(out, p.ref+int64(lane(p.words, int(i), p.width)))
		}
	default:
		for _, i := range sel {
			out = append(out, p.raw[i])
		}
	}
	return out
}
