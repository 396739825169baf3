// Package analytics implements the "glue" data paths between a DBMS and an
// external analytics runtime. The paper's configurations 3–5 differ mainly
// in this layer: "Postgres + R" and "column store + R" export query results
// through a text COPY stream that R re-parses (expensive, O(N) with a large
// constant), while "column store + UDFs" hands its matrices to in-process
// UDFs without a copy (ZeroCopyGlue). DESIGN.md §2.3 documents the one
// deliberate exception: the biclustering UDF crosses the boundary through
// the text path once per extracted bicluster, reproducing the interface
// problem the paper observed ("there seem to be some issues with this
// interface ... such as the biclustering query").
package analytics

import (
	"bytes"
	"context"
	"fmt"
	"strconv"

	"github.com/genbase/genbase/internal/engine"
	"github.com/genbase/genbase/internal/linalg"
	"github.com/genbase/genbase/internal/parallel"
)

// Glue moves data between the DBMS process and the analytics runtime.
// Implementations differ in cost, not semantics: values round-trip exactly,
// whether the runtime receives a parsed copy (TextGlue) or the DBMS's own
// matrix (ZeroCopyGlue).
type Glue interface {
	Name() string
	TransferMatrix(ctx context.Context, m *linalg.Matrix) (*linalg.Matrix, error)
	TransferVector(ctx context.Context, v []float64) ([]float64, error)
}

// TextGlue serializes through a COPY-style tab-separated text stream and
// parses it back — the export/reformat path of the "+ R" configurations.
// Every call writes the whole stream (one line per row, cells as shortest
// round-trip 'g' values joined by tabs) and then re-parses all of it, so the
// per-call text tax the paper observed is paid in full. Both halves run in
// parallel row ranges on the worker pool (parallel.Default()): the writer
// encodes each range into its own region of one pre-sized stream and joins
// them, and the reader splits the stream at newline boundaries, as a
// parallel CSV reader does, and parses the chunks straight into a pooled
// output matrix. The bytes, the values and the error for any malformed
// stream are those of a serial writer and reader. Transfers below
// textParallelCells run as one range on the calling goroutine.
type TextGlue struct{}

// textParallelCells is the transfer size (rows × cols) below which TextGlue
// encodes and parses as one inline range: small served cells must not pay a
// goroutine fan-out per call under concurrent load.
const textParallelCells = 1 << 16

// maxCellBytes bounds one encoded cell: the longest shortest-'g' float64
// ("-2.2250738585072014e-308", 24 bytes) plus its tab or newline.
const maxCellBytes = 25

// Name implements Glue.
func (TextGlue) Name() string { return "text-copy" }

// TransferMatrix implements Glue: serialize every cell to text, then parse.
func (TextGlue) TransferMatrix(ctx context.Context, m *linalg.Matrix) (*linalg.Matrix, error) {
	workers := 1
	if m.Rows*m.Cols >= textParallelCells {
		workers = parallel.Default()
	}
	stream, err := encodeText(ctx, m, workers)
	if err != nil {
		return nil, err
	}
	return parseText(ctx, stream, m.Rows, m.Cols, workers)
}

// encodeText writes m as the COPY stream, one contiguous row range per
// worker. Range k encodes into its own region of a buffer sized for the
// longest possible rows, so no append ever reallocates; the regions are then
// moved down behind one another into one stream.
func encodeText(ctx context.Context, m *linalg.Matrix, workers int) ([]byte, error) {
	rowMax := max(m.Cols*maxCellBytes, 1)
	buf := make([]byte, m.Rows*rowMax)
	ranges := parallel.Split(m.Rows, workers)
	ends := make([]int, len(ranges))
	errs := make([]error, len(ranges))
	parallel.For(workers, len(ranges), func(k int) {
		lo, hi := ranges[k].Lo, ranges[k].Hi
		dst := buf[lo*rowMax : lo*rowMax : hi*rowMax]
		for i := lo; i < hi; i++ {
			if i%256 == 0 {
				if errs[k] = engine.CheckCtx(ctx); errs[k] != nil {
					return
				}
			}
			for j, v := range m.Row(i) {
				if j > 0 {
					dst = append(dst, '\t')
				}
				dst = strconv.AppendFloat(dst, v, 'g', -1, 64)
			}
			dst = append(dst, '\n')
		}
		ends[k] = lo*rowMax + len(dst)
	})
	n := 0
	for k, r := range ranges {
		if errs[k] != nil {
			return nil, errs[k]
		}
		if from := r.Lo * rowMax; from != n {
			n += copy(buf[n:], buf[from:ends[k]])
		} else {
			n = ends[k]
		}
	}
	return buf[:n], nil
}

// parseText reads a COPY stream back into a rows×cols matrix. Lines end at
// '\n' (one trailing '\r' is dropped, and a final line needs no newline), as
// bufio.ScanLines reads them. The stream is cut into one chunk per worker at
// the first line start at or after each equal byte offset; a serial count of
// the newlines before each chunk gives its first row, and the chunks are then
// parsed concurrently. Chunks stop at row rows, and the error returned is the
// one a serial reader meets first: a malformed line before row rows, then a
// row count that differs from rows.
func parseText(ctx context.Context, stream []byte, rows, cols, workers int) (*linalg.Matrix, error) {
	cuts := make([]int, workers+1)
	for k := 1; k < workers; k++ {
		c := k * len(stream) / workers
		if c > 0 {
			if nl := bytes.IndexByte(stream[c-1:], '\n'); nl >= 0 {
				c += nl
			} else {
				c = len(stream)
			}
		}
		cuts[k] = c
	}
	cuts[workers] = len(stream)
	first := make([]int, workers+1)
	for k := 0; k < workers; k++ {
		first[k+1] = first[k] + bytes.Count(stream[cuts[k]:cuts[k+1]], []byte{'\n'})
	}
	lines := first[workers]
	if n := len(stream); n > 0 && stream[n-1] != '\n' {
		lines++
	}
	out := linalg.GetMatrix(rows, cols)
	errs := make([]error, workers)
	parallel.For(workers, workers, func(k int) {
		errs[k] = parseLines(ctx, stream[cuts[k]:cuts[k+1]], first[k], out)
	})
	for _, err := range errs {
		if err != nil {
			linalg.PutMatrix(out)
			return nil, err
		}
	}
	if lines != rows {
		linalg.PutMatrix(out)
		if lines > rows {
			return nil, fmt.Errorf("analytics: too many rows in export stream")
		}
		return nil, fmt.Errorf("analytics: got %d rows, want %d", lines, rows)
	}
	return out, nil
}

// parseLines parses the lines of chunk into out's rows from row i on,
// stopping at out.Rows.
func parseLines(ctx context.Context, chunk []byte, i int, out *linalg.Matrix) error {
	for ; len(chunk) > 0 && i < out.Rows; i++ {
		line := chunk
		if nl := bytes.IndexByte(chunk, '\n'); nl >= 0 {
			line, chunk = chunk[:nl], chunk[nl+1:]
		} else {
			chunk = nil
		}
		if n := len(line); n > 0 && line[n-1] == '\r' {
			line = line[:n-1]
		}
		if i%256 == 0 {
			if err := engine.CheckCtx(ctx); err != nil {
				return err
			}
		}
		if err := parseRow(line, out.Row(i), i); err != nil {
			return err
		}
	}
	return nil
}

// parseRow parses one tab-separated line into row i. A zero-width row is
// written as an empty line.
func parseRow(line []byte, row []float64, i int) error {
	if len(line) == 0 && len(row) == 0 {
		return nil
	}
	j, start := 0, 0
	for k := 0; k <= len(line); k++ {
		if k == len(line) || line[k] == '\t' {
			if j >= len(row) {
				return fmt.Errorf("analytics: row %d has too many fields", i)
			}
			v, err := strconv.ParseFloat(string(line[start:k]), 64)
			if err != nil {
				return fmt.Errorf("analytics: parse row %d col %d: %w", i, j, err)
			}
			row[j] = v
			j++
			start = k + 1
		}
	}
	if j != len(row) {
		return fmt.Errorf("analytics: row %d has %d fields, want %d", i, j, len(row))
	}
	return nil
}

// TransferVector implements Glue.
func (g TextGlue) TransferVector(ctx context.Context, v []float64) ([]float64, error) {
	out, err := g.TransferMatrix(ctx, linalg.VecView(v))
	if err != nil {
		return nil, err
	}
	return out.Data, nil
}

// ZeroCopyGlue is the zero-copy UDF boundary: the analytics runtime receives
// the DBMS's matrix itself (a view over storage or a pooled gather), paying
// no transfer at all. Safe because the kernels never mutate their operands
// (view.go's aliasing contract); the column store's in-process UDF
// configuration uses it for every kernel but biclustering.
type ZeroCopyGlue struct{}

// Name implements Glue.
func (ZeroCopyGlue) Name() string { return "zero-copy" }

// TransferMatrix implements Glue: a hand-off, not a copy.
func (ZeroCopyGlue) TransferMatrix(ctx context.Context, m *linalg.Matrix) (*linalg.Matrix, error) {
	if err := engine.CheckCtx(ctx); err != nil {
		return nil, err
	}
	return m, nil
}

// TransferVector implements Glue.
func (ZeroCopyGlue) TransferVector(ctx context.Context, v []float64) ([]float64, error) {
	if err := engine.CheckCtx(ctx); err != nil {
		return nil, err
	}
	return v, nil
}

// TransferMatrixTimed ships x across the glue boundary under the transfer
// phase, releasing x back to the arena when the glue produced a fresh
// matrix. This is the kernel-side idiom every "+R"/UDF physical operator
// opens with; callers switch the watch to analytics themselves once their
// remaining operands have crossed. x is consumed on every path — on a
// transfer failure (e.g. cancellation mid-COPY) it is released to the
// arena, upholding the plan executor's "kernels own their matrix inputs"
// contract so aborted queries don't bleed pooled matrices to the GC.
func TransferMatrixTimed(ctx context.Context, g Glue, sw *engine.StopWatch, x *linalg.Matrix) (*linalg.Matrix, error) {
	sw.StartTransfer()
	out, err := g.TransferMatrix(ctx, x)
	if err != nil {
		linalg.PutMatrix(x)
		return nil, err
	}
	if out != x {
		linalg.PutMatrix(x)
	}
	return out, nil
}
