package rowstore

import (
	"context"
	"sort"

	"github.com/genbase/genbase/internal/engine"
	"github.com/genbase/genbase/internal/relation"
	"github.com/genbase/genbase/internal/storage"
)

// Iterator is the Volcano operator contract: Open, repeated Next, Close.
// Rows returned by Next are valid only until the following Next call;
// operators that buffer rows must Clone them.
type Iterator interface {
	Open() error
	Next() (relation.Row, bool, error)
	Close() error
	Schema() relation.Schema
}

// SeqScan reads a heap table tuple-at-a-time, decoding each record — the
// row-store access path whose per-tuple overhead the paper's Postgres
// numbers reflect.
type SeqScan struct {
	Ctx   context.Context
	Table *TableHandle

	cur  *storage.Cursor
	row  relation.Row
	seen int
}

// Open implements Iterator.
func (s *SeqScan) Open() error {
	s.cur = s.Table.Heap.NewCursor()
	return nil
}

// Next implements Iterator.
func (s *SeqScan) Next() (relation.Row, bool, error) {
	s.seen++
	if s.seen%16384 == 0 && s.Ctx != nil {
		if err := engine.CheckCtx(s.Ctx); err != nil {
			return nil, false, err
		}
	}
	rec, ok, err := s.cur.Next()
	if err != nil || !ok {
		return nil, false, err
	}
	s.row, err = relation.DecodeRow(s.Table.Schema, rec, s.row)
	if err != nil {
		return nil, false, err
	}
	return s.row, true, nil
}

// Close implements Iterator.
func (s *SeqScan) Close() error {
	if s.cur != nil {
		s.cur.Close()
	}
	return nil
}

// Schema implements Iterator.
func (s *SeqScan) Schema() relation.Schema { return s.Table.Schema }

// MemScan iterates an in-memory table (temp tables for the Madlib-simulated
// plans).
type MemScan struct {
	Ctx   context.Context
	Table *relation.Table
	pos   int
}

// Open implements Iterator.
func (m *MemScan) Open() error { m.pos = 0; return nil }

// Next implements Iterator.
func (m *MemScan) Next() (relation.Row, bool, error) {
	if m.pos%16384 == 0 && m.Ctx != nil {
		if err := engine.CheckCtx(m.Ctx); err != nil {
			return nil, false, err
		}
	}
	if m.pos >= len(m.Table.Rows) {
		return nil, false, nil
	}
	r := m.Table.Rows[m.pos]
	m.pos++
	return r, true, nil
}

// Close implements Iterator.
func (m *MemScan) Close() error { return nil }

// Schema implements Iterator.
func (m *MemScan) Schema() relation.Schema { return m.Table.Schema }

// HashJoin is an equi-join: the build side is fully materialized into a hash
// table keyed on an int64 column, then the probe side streams. Output rows
// are probe columns followed by build columns.
type HashJoin struct {
	Build    Iterator
	Probe    Iterator
	BuildKey int
	ProbeKey int

	table   map[int64][]relation.Row
	schema  relation.Schema
	out     relation.Row
	pending []relation.Row // remaining build matches for the current probe row
	probed  relation.Row
}

// Open implements Iterator: drains and hashes the build side.
func (j *HashJoin) Open() error {
	if err := j.Build.Open(); err != nil {
		return err
	}
	j.table = make(map[int64][]relation.Row)
	for {
		r, ok, err := j.Build.Next()
		if err != nil {
			j.Build.Close()
			return err
		}
		if !ok {
			break
		}
		k := r[j.BuildKey].I
		j.table[k] = append(j.table[k], r.Clone())
	}
	if err := j.Build.Close(); err != nil {
		return err
	}
	j.schema = append(append(relation.Schema{}, j.Probe.Schema()...), j.Build.Schema()...)
	j.out = make(relation.Row, len(j.schema))
	return j.Probe.Open()
}

// Next implements Iterator.
func (j *HashJoin) Next() (relation.Row, bool, error) {
	for {
		if len(j.pending) > 0 {
			b := j.pending[0]
			j.pending = j.pending[1:]
			copy(j.out, j.probed)
			copy(j.out[len(j.probed):], b)
			return j.out, true, nil
		}
		r, ok, err := j.Probe.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		matches := j.table[r[j.ProbeKey].I]
		if len(matches) == 0 {
			continue
		}
		j.probed = r
		j.pending = matches
	}
}

// Close implements Iterator.
func (j *HashJoin) Close() error {
	j.table = nil
	return j.Probe.Close()
}

// Schema implements Iterator.
func (j *HashJoin) Schema() relation.Schema { return j.schema }

// SortOp materializes and sorts its input.
type SortOp struct {
	Child Iterator
	Less  func(a, b relation.Row) bool

	rows []relation.Row
	pos  int
}

// Open implements Iterator: drains and sorts.
func (s *SortOp) Open() error {
	if err := s.Child.Open(); err != nil {
		return err
	}
	s.rows = s.rows[:0]
	for {
		r, ok, err := s.Child.Next()
		if err != nil {
			s.Child.Close()
			return err
		}
		if !ok {
			break
		}
		s.rows = append(s.rows, r.Clone())
	}
	if err := s.Child.Close(); err != nil {
		return err
	}
	sort.SliceStable(s.rows, func(a, b int) bool { return s.Less(s.rows[a], s.rows[b]) })
	s.pos = 0
	return nil
}

// Next implements Iterator.
func (s *SortOp) Next() (relation.Row, bool, error) {
	if s.pos >= len(s.rows) {
		return nil, false, nil
	}
	r := s.rows[s.pos]
	s.pos++
	return r, true, nil
}

// Close implements Iterator.
func (s *SortOp) Close() error { s.rows = nil; return nil }

// Schema implements Iterator.
func (s *SortOp) Schema() relation.Schema { return s.Child.Schema() }

// AggSpec describes one aggregate over a float-convertible column.
type AggSpec struct {
	Col  int
	Kind AggKind
}

// AggKind enumerates supported aggregates.
type AggKind int

// Supported aggregate kinds.
const (
	AggSum AggKind = iota
	AggCount
	AggAvg
)

// HashAgg groups by an int64 key column and computes aggregates. Output rows
// are (key, agg...). Results stream in ascending key order for determinism.
type HashAgg struct {
	Child Iterator
	Key   int
	Aggs  []AggSpec

	keys   []int64
	groups map[int64]*aggState
	pos    int
	out    relation.Row
	schema relation.Schema
}

type aggState struct {
	sums   []float64
	counts []int64
}

// Open implements Iterator: drains the child and aggregates.
func (h *HashAgg) Open() error {
	if err := h.Child.Open(); err != nil {
		return err
	}
	h.groups = make(map[int64]*aggState)
	for {
		r, ok, err := h.Child.Next()
		if err != nil {
			h.Child.Close()
			return err
		}
		if !ok {
			break
		}
		k := r[h.Key].I
		st, exists := h.groups[k]
		if !exists {
			st = &aggState{sums: make([]float64, len(h.Aggs)), counts: make([]int64, len(h.Aggs))}
			h.groups[k] = st
			h.keys = append(h.keys, k)
		}
		for i, a := range h.Aggs {
			st.sums[i] += r[a.Col].AsFloat()
			st.counts[i]++
		}
	}
	if err := h.Child.Close(); err != nil {
		return err
	}
	sort.Slice(h.keys, func(a, b int) bool { return h.keys[a] < h.keys[b] })
	cs := h.Child.Schema()
	h.schema = relation.Schema{cs[h.Key]}
	for _, a := range h.Aggs {
		name := cs[a.Col].Name
		switch a.Kind {
		case AggSum:
			name = "sum_" + name
		case AggCount:
			name = "count_" + name
		case AggAvg:
			name = "avg_" + name
		}
		h.schema = append(h.schema, relation.Column{Name: name, Kind: relation.KindFloat64})
	}
	h.out = make(relation.Row, len(h.schema))
	h.pos = 0
	return nil
}

// Next implements Iterator.
func (h *HashAgg) Next() (relation.Row, bool, error) {
	if h.pos >= len(h.keys) {
		return nil, false, nil
	}
	k := h.keys[h.pos]
	h.pos++
	st := h.groups[k]
	h.out[0] = relation.IntVal(k)
	for i, a := range h.Aggs {
		switch a.Kind {
		case AggSum:
			h.out[i+1] = relation.FloatVal(st.sums[i])
		case AggCount:
			h.out[i+1] = relation.FloatVal(float64(st.counts[i]))
		case AggAvg:
			h.out[i+1] = relation.FloatVal(st.sums[i] / float64(st.counts[i]))
		}
	}
	return h.out, true, nil
}

// Close implements Iterator.
func (h *HashAgg) Close() error { h.groups = nil; h.keys = nil; return nil }

// Schema implements Iterator.
func (h *HashAgg) Schema() relation.Schema { return h.schema }

// Eval appends a computed column to each row (the executor's expression
// evaluation; in the Madlib-simulated plans this is where the interpreted
// per-tuple arithmetic happens).
type Eval struct {
	Child Iterator
	Name  string
	Fn    func(relation.Row) relation.Value

	out relation.Row
}

// Open implements Iterator. The child opens first: operators like HashJoin
// only know their output schema after Open.
func (e *Eval) Open() error {
	if err := e.Child.Open(); err != nil {
		return err
	}
	e.out = make(relation.Row, len(e.Child.Schema())+1)
	return nil
}

// Next implements Iterator.
func (e *Eval) Next() (relation.Row, bool, error) {
	r, ok, err := e.Child.Next()
	if err != nil || !ok {
		return nil, false, err
	}
	copy(e.out, r)
	e.out[len(r)] = e.Fn(r)
	return e.out, true, nil
}

// Close implements Iterator.
func (e *Eval) Close() error { return e.Child.Close() }

// Schema implements Iterator.
func (e *Eval) Schema() relation.Schema {
	return append(append(relation.Schema{}, e.Child.Schema()...),
		relation.Column{Name: e.Name, Kind: relation.KindFloat64})
}

// Drain runs an iterator to completion, invoking fn per row.
func Drain(it Iterator, fn func(relation.Row) error) error {
	if err := it.Open(); err != nil {
		return err
	}
	defer it.Close()
	for {
		r, ok, err := it.Next()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		if err := fn(r); err != nil {
			return err
		}
	}
}
