package rowstore

import (
	"context"
	"fmt"
	"path/filepath"
	"slices"

	"github.com/genbase/genbase/internal/colpage"
	"github.com/genbase/genbase/internal/engine"
	planir "github.com/genbase/genbase/internal/plan"
	"github.com/genbase/genbase/internal/relation"
	"github.com/genbase/genbase/internal/storage"
)

// The columnar sidecar is the row store's compressed twin of a heap table:
// one auxiliary heap file per column ("<table>.<col>.colseg") whose records
// are colpage-encoded segments of sidecarSegmentRows rows each, written in
// heap order at load time. Selections, full scans and the Q5 sample read it
// instead of decoding every heap record: one page parse per 1000 rows, with
// structured predicates pushed down to the encoded form. Segments preserve
// heap order exactly, so every consumer sees rows in the order a
// row-at-a-time heap scan would produce them (DESIGN.md §15).

const (
	// sidecarSegmentRows is the segment length. A raw 1000-row segment
	// serializes to 8004 bytes, inside the heap-record cap (PageSize−16), so
	// even an incompressible column always flushes.
	sidecarSegmentRows = 1000
	// sidecarPoolFrames keeps the per-column buffer pools small: segment
	// scans are sequential, so a handful of frames suffices.
	sidecarPoolFrames = 64
)

// tableSidecar holds the per-column segment heaps of one table, parallel to
// its schema.
type tableSidecar struct {
	schema relation.Schema
	n      int // total rows across segments
	heaps  []*storage.HeapFile
}

// buildTableSidecar scans the heap table columnar and writes each column's
// values as compressed segments, an int or a float page per column kind.
func buildTableSidecar(ctx context.Context, db *DB, name string) (*tableSidecar, error) {
	t, err := db.Table(name)
	if err != nil {
		return nil, err
	}
	sc := &tableSidecar{schema: t.Schema, heaps: make([]*storage.HeapFile, len(t.Schema))}
	for i, col := range t.Schema {
		h, err := storage.CreateHeapFile(filepath.Join(db.dir, name+"."+col.Name+".colseg"), sidecarPoolFrames)
		if err != nil {
			sc.remove()
			return nil, err
		}
		sc.heaps[i] = h
	}

	ints := make([][]int64, len(t.Schema))
	flts := make([][]float64, len(t.Schema))
	for i, col := range t.Schema {
		if col.Kind == relation.KindInt64 {
			ints[i] = make([]int64, 0, sidecarSegmentRows)
		} else {
			flts[i] = make([]float64, 0, sidecarSegmentRows)
		}
	}
	buffered := 0
	var enc []byte
	flush := func() error {
		if buffered == 0 {
			return nil
		}
		for i, col := range t.Schema {
			if col.Kind == relation.KindInt64 {
				enc = colpage.BuildInt(ints[i]).AppendEncoded(enc[:0])
				ints[i] = ints[i][:0]
			} else {
				enc = colpage.BuildFloat(flts[i]).AppendEncoded(enc[:0])
				flts[i] = flts[i][:0]
			}
			if err := sc.heaps[i].Append(enc); err != nil {
				return err
			}
		}
		buffered = 0
		return nil
	}
	err = scanColumnar(ctx, t, func(b *relation.ColumnBatch) error {
		rows, off := b.Len(), 0
		for off < rows {
			take := min(sidecarSegmentRows-buffered, rows-off)
			for i, col := range t.Schema {
				if col.Kind == relation.KindInt64 {
					ints[i] = append(ints[i], b.Ints[i][off:off+take]...)
				} else {
					flts[i] = append(flts[i], b.Floats[i][off:off+take]...)
				}
			}
			buffered += take
			sc.n += take
			off += take
			if buffered == sidecarSegmentRows {
				if err := flush(); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err == nil {
		err = flush()
	}
	if err != nil {
		sc.remove()
		return nil, err
	}
	return sc, nil
}

// remove drops every segment heap (table teardown).
func (sc *tableSidecar) remove() error {
	var firstErr error
	for _, h := range sc.heaps {
		if h == nil {
			continue
		}
		if err := h.Remove(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// colIdx resolves a column name against the sidecar's schema.
func (sc *tableSidecar) colIdx(name string) int { return sc.schema.MustColIndex(name) }

// intSegs opens a segment cursor over an int column.
func (sc *tableSidecar) intSegs(col string) *intSegCursor {
	return &intSegCursor{cur: sc.heaps[sc.colIdx(col)].NewCursor()}
}

// floatSegs opens a segment cursor over a float column.
func (sc *tableSidecar) floatSegs(col string) *floatSegCursor {
	return &floatSegCursor{cur: sc.heaps[sc.colIdx(col)].NewCursor()}
}

// intSegCursor streams a column's segments as parsed pages. Next returns
// nil at end of column. ParseInt copies out of the pinned page bytes, so the
// returned page stays valid after the cursor advances.
type intSegCursor struct{ cur *storage.Cursor }

func (c *intSegCursor) Next() (*colpage.IntPage, error) {
	rec, ok, err := c.cur.Next()
	if err != nil || !ok {
		return nil, err
	}
	return colpage.ParseInt(rec)
}

func (c *intSegCursor) Close() { c.cur.Close() }

// floatSegCursor is intSegCursor for float columns.
type floatSegCursor struct{ cur *storage.Cursor }

func (c *floatSegCursor) Next() (*colpage.FloatPage, error) {
	rec, ok, err := c.cur.Next()
	if err != nil || !ok {
		return nil, err
	}
	return colpage.ParseFloat(rec)
}

func (c *floatSegCursor) Close() { c.cur.Close() }

// pushdownPred translates a planner predicate into the colpage form (both
// carry exactly LT/EQ against an int64).
func pushdownPred(p planir.Pred) colpage.Pred {
	op := colpage.LT
	if p.Op == planir.CmpEQ {
		op = colpage.EQ
	}
	return colpage.Pred{Op: op, Val: p.Val}
}

// selectIDsCompressed runs σ(preds) against the encoded segments: per
// segment the first predicate selects directly on its column page
// (dictionary-code equality, RLE run skipping, packed-word range tests),
// later conjuncts refine the selection vector, and the survivors gather the
// id page — filtered-out rows are never decoded. An empty conjunction keeps
// every row. The ids are sorted ascending.
func selectIDsCompressed(ctx context.Context, sc *tableSidecar, idName string, preds []planir.Pred) ([]int64, error) {
	curs := make([]*intSegCursor, len(preds))
	for i, p := range preds {
		curs[i] = sc.intSegs(p.Col)
		defer curs[i].Close()
	}
	idCur := sc.intSegs(idName)
	defer idCur.Close()
	var ids []int64
	var sel []int32
	for {
		idPg, err := idCur.Next()
		if err != nil {
			return nil, err
		}
		if idPg == nil {
			break
		}
		if err := engine.CheckCtx(ctx); err != nil {
			return nil, err
		}
		if len(preds) == 0 {
			ids = idPg.AppendTo(ids)
			continue
		}
		sel = sel[:0]
		for i, p := range preds {
			pg, err := curs[i].Next()
			if err != nil {
				return nil, err
			}
			if pg == nil || pg.Len() != idPg.Len() {
				return nil, fmt.Errorf("rowstore: sidecar segments misaligned for %s", p.Col)
			}
			if i == 0 {
				sel = pg.Select(pushdownPred(p), sel)
			} else {
				sel = pg.RefinePred(pushdownPred(p), sel)
			}
		}
		ids = idPg.Gather(sel, ids)
	}
	slices.Sort(ids)
	return ids, nil
}

// sampleSumsCompressed accumulates Q5's per-gene sums over the sampled
// patients straight off the microarray segments: the modulus runs once per
// patientid run (the fact table is loaded patient-major, so runs span whole
// patients) and only surviving positions gather geneid/value. Segments come
// in heap order, so each gene's sum accumulates in heap order.
func (e *Engine) sampleSumsCompressed(ctx context.Context, step int, sums []float64, counts []int64) error {
	sc := e.sidecars["microarray"]
	pCur := sc.intSegs("patientid")
	defer pCur.Close()
	gCur := sc.intSegs("geneid")
	defer gCur.Close()
	vCur := sc.floatSegs("expressionvalue")
	defer vCur.Close()
	step64 := int64(step)
	sample := func(v int64) bool { return v%step64 == 0 }
	var sel []int32
	var gids []int64
	var vals []float64
	for {
		pPg, err := pCur.Next()
		if err != nil {
			return err
		}
		if pPg == nil {
			return nil
		}
		gPg, err := gCur.Next()
		if err != nil {
			return err
		}
		vPg, err := vCur.Next()
		if err != nil {
			return err
		}
		if gPg == nil || vPg == nil || gPg.Len() != pPg.Len() || vPg.Len() != pPg.Len() {
			return fmt.Errorf("rowstore: microarray sidecar segments misaligned")
		}
		if err := engine.CheckCtx(ctx); err != nil {
			return err
		}
		sel = pPg.SelectFn(sample, sel[:0])
		if len(sel) == 0 {
			continue
		}
		gids = gPg.Gather(sel, gids[:0])
		vals = vPg.Gather(sel, vals[:0])
		for i, g := range gids {
			sums[g] += vals[i]
			counts[g]++
		}
	}
}

// scanColumnarCompressed is the sidecar twin of scanColumnar: it decodes
// whole segments into a ColumnBatch (one page parse per column per 1000
// rows instead of one DecodeColumns per record) and hands batches to fn in
// heap order, so consumers accumulate in exactly the order of a heap scan.
func scanColumnarCompressed(ctx context.Context, sc *tableSidecar, fn func(*relation.ColumnBatch) error) error {
	intCurs := make([]*intSegCursor, len(sc.schema))
	fltCurs := make([]*floatSegCursor, len(sc.schema))
	for i, col := range sc.schema {
		if col.Kind == relation.KindInt64 {
			intCurs[i] = sc.intSegs(col.Name)
			defer intCurs[i].Close()
		} else {
			fltCurs[i] = sc.floatSegs(col.Name)
			defer fltCurs[i].Close()
		}
	}
	batch := relation.NewColumnBatch(sc.schema, sidecarSegmentRows)
	var intScratch []int64
	var fltScratch []float64
	for {
		segLen := -1
		for i, col := range sc.schema {
			n := -1
			if intCurs[i] != nil {
				pg, err := intCurs[i].Next()
				if err != nil {
					return err
				}
				if pg != nil {
					intScratch = pg.AppendTo(intScratch[:0])
					batch.AppendInts(i, intScratch)
					n = pg.Len()
				}
			} else {
				pg, err := fltCurs[i].Next()
				if err != nil {
					return err
				}
				if pg != nil {
					fltScratch = pg.AppendTo(fltScratch[:0])
					batch.AppendFloats(i, fltScratch)
					n = pg.Len()
				}
			}
			if n == -1 {
				if i == 0 {
					return nil // all columns exhaust in lockstep
				}
				return fmt.Errorf("rowstore: sidecar column %s ended early", col.Name)
			}
			if segLen == -1 {
				segLen = n
			} else if segLen != n {
				return fmt.Errorf("rowstore: sidecar column %s segment has %d rows, want %d", col.Name, n, segLen)
			}
		}
		if err := batch.GrowRows(segLen); err != nil {
			return err
		}
		if err := engine.CheckCtx(ctx); err != nil {
			return err
		}
		if err := fn(batch); err != nil {
			return err
		}
		batch.Reset()
	}
}
