package relation

import (
	"encoding/binary"
	"fmt"
	"math"
)

// EncodeRow serializes a row for slotted-page storage: every column as 8
// little-endian bytes (an int64, or a float64's bits). The schema is not
// stored — the heap file's catalog entry carries it.
func EncodeRow(schema Schema, r Row, buf []byte) []byte {
	for i, col := range schema {
		switch col.Kind {
		case KindInt64:
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], uint64(r[i].I))
			buf = append(buf, b[:]...)
		case KindFloat64:
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(r[i].F))
			buf = append(buf, b[:]...)
		}
	}
	return buf
}

// ColumnBatch accumulates decoded rows column-wise: one typed slice per
// schema column, filled straight from page bytes with no per-row Value
// boxing. It is the unit of the zero-copy scan path (DESIGN.md §10): a scan
// decodes a batch, the consumer reads the typed columns, Reset recycles the
// capacity, and a steady-state scan allocates nothing.
type ColumnBatch struct {
	Schema Schema
	// Ints[i] / Floats[i] holds column i's values when the schema's kind
	// matches; the other is nil for that index.
	Ints   [][]int64
	Floats [][]float64

	n     int
	fixed int // encoded width of one record
}

// NewColumnBatch prepares a batch for the schema with the given row
// capacity pre-allocated per column.
func NewColumnBatch(schema Schema, capacity int) *ColumnBatch {
	b := &ColumnBatch{
		Schema: schema,
		Ints:   make([][]int64, len(schema)),
		Floats: make([][]float64, len(schema)),
	}
	for i, col := range schema {
		switch col.Kind {
		case KindInt64:
			b.Ints[i] = make([]int64, 0, capacity)
			b.fixed += 8
		case KindFloat64:
			b.Floats[i] = make([]float64, 0, capacity)
			b.fixed += 8
		}
	}
	return b
}

// Len returns the number of rows currently decoded into the batch.
func (b *ColumnBatch) Len() int { return b.n }

// Reset empties the batch, keeping every column's capacity.
func (b *ColumnBatch) Reset() {
	for i := range b.Schema {
		if b.Ints[i] != nil {
			b.Ints[i] = b.Ints[i][:0]
		}
		if b.Floats[i] != nil {
			b.Floats[i] = b.Floats[i][:0]
		}
	}
	b.n = 0
}

// AppendInts bulk-appends decoded values to int column col. Pair with
// appends on the other columns and one GrowRows call per batch so the batch
// stays rectangular — this is the columnar load path (a compressed segment
// decodes straight into the batch, no per-row DecodeColumns).
func (b *ColumnBatch) AppendInts(col int, vals []int64) {
	b.Ints[col] = append(b.Ints[col], vals...)
}

// AppendFloats bulk-appends decoded values to float column col.
func (b *ColumnBatch) AppendFloats(col int, vals []float64) {
	b.Floats[col] = append(b.Floats[col], vals...)
}

// GrowRows commits n rows appended column-wise via AppendInts/AppendFloats,
// verifying every column reached exactly the new row count.
func (b *ColumnBatch) GrowRows(n int) error {
	b.n += n
	for i, col := range b.Schema {
		var got int
		switch col.Kind {
		case KindInt64:
			got = len(b.Ints[i])
		case KindFloat64:
			got = len(b.Floats[i])
		}
		if got != b.n {
			return fmt.Errorf("relation: column %d has %d rows after grow, batch has %d", i, got, b.n)
		}
	}
	return nil
}

// DecodeColumns appends one encoded record's values to the batch's typed
// columns, decoding directly from the page bytes. This is the columnar
// counterpart of DecodeRow: same wire format, no Value boxing. Every column
// is 8 bytes wide, so the record's length is checked against the schema's
// before any column is touched: a record of any other length is rejected
// and leaves the batch exactly as it was.
func (b *ColumnBatch) DecodeColumns(data []byte) error {
	if len(data) != b.fixed {
		return fmt.Errorf("relation: record is %d bytes, schema needs %d", len(data), b.fixed)
	}
	off := 0
	for i, col := range b.Schema {
		switch col.Kind {
		case KindInt64:
			b.Ints[i] = append(b.Ints[i], int64(binary.LittleEndian.Uint64(data[off:])))
			off += 8
		case KindFloat64:
			b.Floats[i] = append(b.Floats[i], math.Float64frombits(binary.LittleEndian.Uint64(data[off:])))
			off += 8
		}
	}
	b.n++
	return nil
}

// DecodeRow parses a record produced by EncodeRow. The destination row is
// reused if it has the right arity.
func DecodeRow(schema Schema, data []byte, dst Row) (Row, error) {
	if cap(dst) >= len(schema) {
		dst = dst[:len(schema)]
	} else {
		dst = make(Row, len(schema))
	}
	off := 0
	for i, col := range schema {
		switch col.Kind {
		case KindInt64:
			if off+8 > len(data) {
				return nil, fmt.Errorf("relation: truncated int64 at column %d", i)
			}
			dst[i] = Value{Kind: KindInt64, I: int64(binary.LittleEndian.Uint64(data[off:]))}
			off += 8
		case KindFloat64:
			if off+8 > len(data) {
				return nil, fmt.Errorf("relation: truncated float64 at column %d", i)
			}
			dst[i] = Value{Kind: KindFloat64, F: math.Float64frombits(binary.LittleEndian.Uint64(data[off:]))}
			off += 8
		}
	}
	if off != len(data) {
		return nil, fmt.Errorf("relation: %d trailing bytes after row", len(data)-off)
	}
	return dst, nil
}
