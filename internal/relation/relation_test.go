package relation

import (
	"slices"
	"testing"
	"testing/quick"
)

// Equal reports deep equality (kind and payload).
func (v Value) Equal(o Value) bool {
	if v.Kind != o.Kind {
		return false
	}
	switch v.Kind {
	case KindInt64:
		return v.I == o.I
	default:
		return v.F == o.F
	}
}

func TestSchemaColIndex(t *testing.T) {
	s := Schema{{"a", KindInt64}, {"b", KindFloat64}}
	if s.ColIndex("b") != 1 || s.ColIndex("z") != -1 {
		t.Fatal("ColIndex wrong")
	}
	if s.MustColIndex("a") != 0 {
		t.Fatal("MustColIndex wrong")
	}
}

func TestMustColIndexPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Schema{{"a", KindInt64}}.MustColIndex("missing")
}

func TestValueEqualLess(t *testing.T) {
	if !IntVal(3).Equal(IntVal(3)) || IntVal(3).Equal(IntVal(4)) {
		t.Fatal("int equality")
	}
	if IntVal(3).Equal(FloatVal(3)) {
		t.Fatal("cross-kind values are never equal")
	}
	if !IntVal(1).Less(IntVal(2)) || !FloatVal(1.5).Less(FloatVal(2.5)) || FloatVal(2.5).Less(FloatVal(2.5)) {
		t.Fatal("ordering")
	}
}

func TestValueAsFloat(t *testing.T) {
	if IntVal(4).AsFloat() != 4 || FloatVal(2.5).AsFloat() != 2.5 {
		t.Fatal("numeric conversion")
	}
}

func TestValueString(t *testing.T) {
	if IntVal(-7).String() != "-7" {
		t.Fatal("string rendering")
	}
	if FloatVal(0.5).String() != "0.5" {
		t.Fatalf("float rendering: %s", FloatVal(0.5).String())
	}
}

func TestTableAppendChecksKinds(t *testing.T) {
	tb := NewTable("t", Schema{{"a", KindInt64}})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on kind mismatch")
		}
	}()
	tb.Append(Row{FloatVal(1)})
}

func TestTableAppendChecksArity(t *testing.T) {
	tb := NewTable("t", Schema{{"a", KindInt64}})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on arity mismatch")
		}
	}()
	tb.Append(Row{IntVal(1), IntVal(2)})
}

func TestTableAppendAndLen(t *testing.T) {
	tb := NewTable("t", Schema{{"a", KindInt64}, {"v", KindFloat64}})
	tb.Append(Row{IntVal(1), FloatVal(0.5)})
	tb.Append(Row{IntVal(2), FloatVal(1.5)})
	if tb.Len() != 2 || tb.Rows[1][1].F != 1.5 {
		t.Fatal("append failed")
	}
}

func TestRowClone(t *testing.T) {
	r := Row{IntVal(1)}
	c := r.Clone()
	c[0] = IntVal(9)
	if r[0].I != 1 {
		t.Fatal("clone aliases original")
	}
}

func TestCodecRoundTripFixed(t *testing.T) {
	s := Schema{{"id", KindInt64}, {"v", KindFloat64}}
	r := Row{IntVal(-42), FloatVal(3.14159)}
	buf := EncodeRow(s, r, nil)
	got, err := DecodeRow(s, buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range r {
		if !got[i].Equal(r[i]) {
			t.Fatalf("column %d: %v vs %v", i, got[i], r[i])
		}
	}
}

// Property: encode/decode round-trips arbitrary rows.
func TestCodecRoundTripProperty(t *testing.T) {
	s := Schema{{"a", KindInt64}, {"b", KindFloat64}, {"d", KindInt64}}
	f := func(a int64, b float64, d int64) bool {
		r := Row{IntVal(a), FloatVal(b), IntVal(d)}
		buf := EncodeRow(s, r, nil)
		got, err := DecodeRow(s, buf, nil)
		if err != nil {
			return false
		}
		// NaN float payloads round-trip bit-exactly but don't compare equal;
		// compare via String to sidestep NaN != NaN.
		for i := range r {
			if !got[i].Equal(r[i]) && got[i].String() != r[i].String() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeRowTruncated(t *testing.T) {
	s := Schema{{"a", KindInt64}}
	if _, err := DecodeRow(s, []byte{1, 2, 3}, nil); err == nil {
		t.Fatal("expected truncation error")
	}
}

func TestDecodeRowTrailingGarbage(t *testing.T) {
	s := Schema{{"a", KindInt64}}
	buf := EncodeRow(s, Row{IntVal(1)}, nil)
	buf = append(buf, 0xff)
	if _, err := DecodeRow(s, buf, nil); err == nil {
		t.Fatal("expected trailing-bytes error")
	}
}

func TestDecodeRowReusesDst(t *testing.T) {
	s := Schema{{"a", KindInt64}}
	buf := EncodeRow(s, Row{IntVal(5)}, nil)
	dst := make(Row, 1)
	got, err := DecodeRow(s, buf, dst)
	if err != nil {
		t.Fatal(err)
	}
	if &got[0] != &dst[0] {
		t.Fatal("expected dst reuse")
	}
}

func TestDecodeColumnsMatchesDecodeRow(t *testing.T) {
	schema := Schema{
		{"geneid", KindInt64},
		{"expressionvalue", KindFloat64},
	}
	rows := []Row{
		{IntVal(7), FloatVal(3.25)},
		{IntVal(-1), FloatVal(-0.0)},
		{IntVal(1 << 40), FloatVal(1e-300)},
	}
	b := NewColumnBatch(schema, 2)
	var buf []byte
	for _, r := range rows {
		buf = EncodeRow(schema, r, buf[:0])
		if err := b.DecodeColumns(buf); err != nil {
			t.Fatal(err)
		}
	}
	if b.Len() != len(rows) {
		t.Fatalf("batch len %d", b.Len())
	}
	for i, r := range rows {
		if b.Ints[0][i] != r[0].I || b.Floats[1][i] != r[1].F {
			t.Fatalf("row %d: got (%d, %v)", i, b.Ints[0][i], b.Floats[1][i])
		}
	}
	// Reset keeps capacity and empties all columns.
	b.Reset()
	if b.Len() != 0 || len(b.Ints[0]) != 0 || len(b.Floats[1]) != 0 {
		t.Fatal("Reset did not empty the batch")
	}
}

func TestDecodeColumnsRejectsBadRecords(t *testing.T) {
	schema := Schema{{"a", KindInt64}, {"b", KindFloat64}}
	b := NewColumnBatch(schema, 4)
	if err := b.DecodeColumns(make([]byte, 15)); err == nil {
		t.Fatal("accepted truncated fixed-width record")
	}
	if err := b.DecodeColumns(make([]byte, 17)); err == nil {
		t.Fatal("accepted trailing garbage")
	}
	if b.Len() != 0 {
		t.Fatalf("failed decodes must not count rows, len=%d", b.Len())
	}
	if err := b.DecodeColumns(make([]byte, 16)); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 1 || b.Ints[0][0] != 0 || b.Floats[1][0] != 0 {
		t.Fatal("zero record decoded wrong")
	}

	// A record one byte short or one byte long is rejected before any column
	// is touched, whatever the schema: the batch keeps its length and every
	// column its values, so the columns can never end up misaligned.
	schemas := []Schema{
		{{"a", KindInt64}},
		{{"v", KindFloat64}},
		{{"a", KindInt64}, {"b", KindFloat64}},
		{{"geneid", KindInt64}, {"patientid", KindInt64}, {"expressionvalue", KindFloat64}},
		{{"x", KindFloat64}, {"n", KindInt64}, {"y", KindFloat64}, {"m", KindInt64}},
	}
	for _, s := range schemas {
		b := NewColumnBatch(s, 4)
		row := make(Row, len(s))
		for i, col := range s {
			if col.Kind == KindInt64 {
				row[i] = IntVal(int64(i) - 3)
			} else {
				row[i] = FloatVal(float64(i) + 0.25)
			}
		}
		rec := EncodeRow(s, row, nil)
		if err := b.DecodeColumns(rec); err != nil {
			t.Fatal(err)
		}
		ints, floats := cloneColumns(b)
		long := append(append([]byte(nil), rec...), 0xff)
		for _, bad := range [][]byte{rec[:len(rec)-1], long} {
			if err := b.DecodeColumns(bad); err == nil {
				t.Fatalf("%v: accepted a %d-byte record, want %d", s, len(bad), len(rec))
			}
			if b.Len() != 1 {
				t.Fatalf("%v: a rejected record changed Len to %d", s, b.Len())
			}
			gotInts, gotFloats := cloneColumns(b)
			for i := range s {
				if !slices.Equal(gotInts[i], ints[i]) || !slices.Equal(gotFloats[i], floats[i]) {
					t.Fatalf("%v: a rejected %d-byte record changed column %d", s, len(bad), i)
				}
			}
		}
	}
}

// cloneColumns copies every typed column of b.
func cloneColumns(b *ColumnBatch) ([][]int64, [][]float64) {
	ints := make([][]int64, len(b.Schema))
	floats := make([][]float64, len(b.Schema))
	for i := range b.Schema {
		ints[i] = slices.Clone(b.Ints[i])
		floats[i] = slices.Clone(b.Floats[i])
	}
	return ints, floats
}

// A fixed-width decode into a warm batch must not allocate: this is the
// scan path's per-row cost.
func TestDecodeColumnsZeroAllocSteadyState(t *testing.T) {
	schema := Schema{{"g", KindInt64}, {"p", KindInt64}, {"v", KindFloat64}}
	b := NewColumnBatch(schema, 64)
	rec := EncodeRow(schema, Row{IntVal(3), IntVal(9), FloatVal(2.5)}, nil)
	allocs := testing.AllocsPerRun(100, func() {
		b.Reset()
		for i := 0; i < 64; i++ {
			if err := b.DecodeColumns(rec); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs > 0 {
		t.Fatalf("steady-state columnar decode allocates %.1f per batch", allocs)
	}
}
