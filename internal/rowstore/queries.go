package rowstore

import (
	"context"
	"fmt"

	"github.com/genbase/genbase/internal/engine"
	"github.com/genbase/genbase/internal/linalg"
	"github.com/genbase/genbase/internal/relation"
	"github.com/genbase/genbase/internal/storage"
)

// columnarBatchRows is the row count of one decoded ColumnBatch — large
// enough to amortize the per-batch callback, small enough to stay in cache.
const columnarBatchRows = 4096

// scanColumnarFrom streams records from next through a reusable columnar
// batch: records are decoded straight from page bytes into typed per-column
// slices (relation.DecodeColumns), skipping the Volcano executor's per-row
// Value boxing entirely. fn sees batches in source order, so any
// accumulation a caller does per batch row matches the row-at-a-time plan's
// order exactly.
func scanColumnarFrom(ctx context.Context, schema relation.Schema, next func() ([]byte, bool, error), fn func(*relation.ColumnBatch) error) error {
	batch := relation.NewColumnBatch(schema, columnarBatchRows)
	for {
		rec, ok, err := next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		if err := batch.DecodeColumns(rec); err != nil {
			return err
		}
		if batch.Len() == columnarBatchRows {
			if err := engine.CheckCtx(ctx); err != nil {
				return err
			}
			if err := fn(batch); err != nil {
				return err
			}
			batch.Reset()
		}
	}
	if batch.Len() > 0 {
		return fn(batch)
	}
	return nil
}

// scanColumnar is scanColumnarFrom over a full heap scan (the sequential
// access path).
func scanColumnar(ctx context.Context, t *TableHandle, fn func(*relation.ColumnBatch) error) error {
	cur := t.Heap.NewCursor()
	defer cur.Close()
	return scanColumnarFrom(ctx, t.Schema, cur.Next, fn)
}

// scanRIDsColumnar is scanColumnarFrom over a pre-collected, file-ordered
// RID list — the columnar twin of the bitmap access path.
func scanRIDsColumnar(ctx context.Context, t *TableHandle, rids []storage.RID, fn func(*relation.ColumnBatch) error) error {
	var buf []byte
	pos := 0
	next := func() ([]byte, bool, error) {
		if pos >= len(rids) {
			return nil, false, nil
		}
		var err error
		buf, err = t.Heap.FetchRecordInto(rids[pos], buf)
		if err != nil {
			return nil, false, err
		}
		pos++
		return buf, true, nil
	}
	return scanColumnarFrom(ctx, t.Schema, next, fn)
}

// denseIndex inverts an id list into a position array over [0, n): out[id]
// is the id's rank, −1 when absent.
func denseIndex(ids []int64, n int) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = -1
	}
	for i, id := range ids {
		out[id] = int32(i)
	}
	return out
}

// pivotJoin joins the microarray table against the given gene and patient id
// sets (nil set means "all") and restructures the matching triples into a
// dense matrix — the paper's steps 2–3 (join, then restructure as a matrix).
// The scan decodes columnar batches (no per-tuple Value boxing) and fills a
// pooled matrix through dense membership tables; the fill is per cell, so
// either access path produces the same matrix bit for bit.
func (e *Engine) pivotJoin(ctx context.Context, geneIDs, patientIDs []int64) (*linalg.Matrix, error) {
	micro, err := e.db.Table("microarray")
	if err != nil {
		return nil, err
	}
	gCol := MicroarraySchema.MustColIndex("geneid")
	pCol := MicroarraySchema.MustColIndex("patientid")
	vCol := MicroarraySchema.MustColIndex("expressionvalue")

	if geneIDs == nil {
		geneIDs = make([]int64, e.numGenes)
		for i := range geneIDs {
			geneIDs[i] = int64(i)
		}
	}
	if patientIDs == nil {
		patientIDs = make([]int64, e.numPatients)
		for i := range patientIDs {
			patientIDs[i] = int64(i)
		}
	}
	gIdx := denseIndex(geneIDs, e.numGenes)
	pIdx := denseIndex(patientIDs, e.numPatients)
	m := linalg.GetMatrixZeroed(len(patientIDs), len(geneIDs))
	fill := func(b *relation.ColumnBatch) error {
		gs, ps, vs := b.Ints[gCol], b.Ints[pCol], b.Floats[vCol]
		for r, v := range vs {
			gi := gIdx[gs[r]]
			if gi < 0 {
				continue
			}
			pi := pIdx[ps[r]]
			if pi < 0 {
				continue
			}
			m.Data[int(pi)*m.Stride+int(gi)] = v
		}
		return nil
	}
	// Planner choice: when the patient predicate is selective, a bitmap
	// index scan fetches only the matching tuples from the heap; otherwise a
	// full scan reads the compressed sidecar segments.
	if idx := micro.Index("patientid"); idx != nil && len(patientIDs)*10 < e.numPatients {
		err = scanRIDsColumnar(ctx, micro, idx.CollectRIDs(patientIDs), fill)
	} else {
		err = scanColumnarCompressed(ctx, e.sidecars["microarray"], fill)
	}
	if err != nil {
		linalg.PutMatrix(m)
		return nil, err
	}
	return m, nil
}

// drugResponses scans the patients sidecar projecting drug response in
// patient-id order.
func (e *Engine) drugResponses(ctx context.Context) ([]float64, error) {
	idCol := PatientsSchema.MustColIndex("patientid")
	respCol := PatientsSchema.MustColIndex("drugresponse")
	y := make([]float64, e.numPatients)
	err := scanColumnarCompressed(ctx, e.sidecars["patients"], func(b *relation.ColumnBatch) error {
		ids, resp := b.Ints[idCol], b.Floats[respCol]
		for r, id := range ids {
			y[id] = resp[r]
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return y, nil
}

// geneFunctions scans the genes sidecar into a dense lookup (the Q2 step-4
// join side).
func (e *Engine) geneFunctions(ctx context.Context) ([]int64, error) {
	idCol := GenesSchema.MustColIndex("geneid")
	fnCol := GenesSchema.MustColIndex("function")
	fns := make([]int64, e.numGenes)
	err := scanColumnarCompressed(ctx, e.sidecars["genes"], func(b *relation.ColumnBatch) error {
		ids, fn := b.Ints[idCol], b.Ints[fnCol]
		for r, id := range ids {
			fns[id] = fn[r]
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return fns, nil
}

// sampleMeans computes per-gene mean expression over the deterministic Q5
// patient sample, filtering and summing in encoded space off the microarray
// sidecar (sidecar.go). Contributions arrive in heap order.
func (e *Engine) sampleMeans(ctx context.Context, step int) ([]float64, int, error) {
	sums := make([]float64, e.numGenes)
	counts := make([]int64, e.numGenes)
	if err := e.sampleSumsCompressed(ctx, step, sums, counts); err != nil {
		return nil, 0, err
	}
	for j := range sums {
		if counts[j] > 0 {
			sums[j] /= float64(counts[j])
		}
	}
	sampled := (e.numPatients + step - 1) / step
	return sums, sampled, nil
}

// goMembers groups the GO table by term (the Q5 step-2 join input).
func (e *Engine) goMembers(ctx context.Context) ([][]int32, error) {
	gotab, err := e.db.Table("go")
	if err != nil {
		return nil, err
	}
	gCol := GOSchema.MustColIndex("geneid")
	tCol := GOSchema.MustColIndex("goid")
	bCol := GOSchema.MustColIndex("belongs")
	members := make([][]int32, e.numTerms)
	err = Drain(&SeqScan{Ctx: ctx, Table: gotab}, func(r relation.Row) error {
		if r[bCol].I != 1 {
			return nil
		}
		t := r[tCol].I
		if t < 0 || t >= int64(e.numTerms) {
			return fmt.Errorf("rowstore: GO term %d out of range", t)
		}
		members[t] = append(members[t], int32(r[gCol].I))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return members, nil
}
