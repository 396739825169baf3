// Package relation defines the row store's relational model: typed schemas
// of int64 and float64 columns (GenBase's four tables hold nothing else),
// values, rows and in-memory tables, plus the binary row codec its heap
// files hold. Only internal/rowstore uses it.
package relation

import (
	"fmt"
	"strconv"
)

// Kind enumerates column types.
type Kind uint8

// Supported column kinds.
const (
	KindInt64 Kind = iota
	KindFloat64
)

func (k Kind) String() string {
	switch k {
	case KindInt64:
		return "int64"
	case KindFloat64:
		return "float64"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Column describes one attribute.
type Column struct {
	Name string
	Kind Kind
}

// Schema is an ordered list of columns.
type Schema []Column

// ColIndex returns the position of the named column, or −1.
func (s Schema) ColIndex(name string) int {
	for i, c := range s {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// MustColIndex is ColIndex but panics on a missing column — schema references
// in query plans are programmer errors, not runtime conditions.
func (s Schema) MustColIndex(name string) int {
	i := s.ColIndex(name)
	if i < 0 {
		panic(fmt.Sprintf("relation: no column %q in schema %v", name, s))
	}
	return i
}

// Value is a compact tagged union. Exactly one of I/F is meaningful,
// selected by Kind.
type Value struct {
	Kind Kind
	I    int64
	F    float64
}

// IntVal makes an int64 value.
func IntVal(v int64) Value { return Value{Kind: KindInt64, I: v} }

// FloatVal makes a float64 value.
func FloatVal(v float64) Value { return Value{Kind: KindFloat64, F: v} }

// Less orders values of the same kind (used by the sort operator).
func (v Value) Less(o Value) bool {
	if v.Kind == KindInt64 {
		return v.I < o.I
	}
	return v.F < o.F
}

// AsFloat converts the value to float64.
func (v Value) AsFloat() float64 {
	if v.Kind == KindInt64 {
		return float64(v.I)
	}
	return v.F
}

// String renders the value for export formats (text COPY).
func (v Value) String() string {
	if v.Kind == KindInt64 {
		return strconv.FormatInt(v.I, 10)
	}
	return strconv.FormatFloat(v.F, 'g', -1, 64)
}

// Row is one tuple.
type Row []Value

// Clone deep-copies a row.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// Table is an in-memory relation.
type Table struct {
	Name   string
	Schema Schema
	Rows   []Row
}

// NewTable creates an empty table.
func NewTable(name string, schema Schema) *Table {
	return &Table{Name: name, Schema: schema}
}

// Append adds a row after checking arity and kinds.
func (t *Table) Append(r Row) {
	if len(r) != len(t.Schema) {
		panic(fmt.Sprintf("relation: row arity %d vs schema %d", len(r), len(t.Schema)))
	}
	for i, v := range r {
		if v.Kind != t.Schema[i].Kind {
			panic(fmt.Sprintf("relation: column %s kind %v got %v", t.Schema[i].Name, t.Schema[i].Kind, v.Kind))
		}
	}
	t.Rows = append(t.Rows, r)
}

// Len returns the row count.
func (t *Table) Len() int { return len(t.Rows) }
