// Package arraydb is the native array-DBMS configuration (the paper's
// SciDB): the microarray is stored as a chunked dense 2-D array, metadata as
// 1-D attribute arrays indexed by the same dimensions, with encoded pages of
// the selectable attributes for predicate pushdown. There is no recasting of
// tables to arrays and no copy to an external system: a pivot gathers the
// selected cells chunk by chunk into one dense matrix (or views a
// single-chunk array in place), and the analytics run the shared linalg
// kernels on it, as SciDB hands its chunks to ScaLAPACK. Results are
// therefore bit-identical to the reference engine.
package arraydb

import "github.com/genbase/genbase/internal/linalg"

// DefaultChunk is the square chunk side Load stores the microarray at. SciDB
// chunks are "rather large, typically in the Mbyte range"; 256×256 float64 =
// 512 KiB.
const DefaultChunk = 256

// tile is one dense chunk, row-major r×c.
type tile struct {
	r, c int
	data []float64
}

// Array2D is a chunked dense 2-D array of float64.
type Array2D struct {
	Rows, Cols     int
	ChunkR, ChunkC int
	nCR, nCC       int
	tiles          []*tile
}

// NewArray2D allocates a zeroed chunked array of chunkR×chunkC chunks.
func NewArray2D(rows, cols, chunkR, chunkC int) *Array2D {
	a := &Array2D{
		Rows: rows, Cols: cols, ChunkR: chunkR, ChunkC: chunkC,
		nCR: (rows + chunkR - 1) / chunkR,
		nCC: (cols + chunkC - 1) / chunkC,
	}
	if rows == 0 || cols == 0 {
		return a
	}
	a.tiles = make([]*tile, a.nCR*a.nCC)
	for cr := 0; cr < a.nCR; cr++ {
		tr := min(chunkR, rows-cr*chunkR)
		for cc := 0; cc < a.nCC; cc++ {
			tc := min(chunkC, cols-cc*chunkC)
			a.tiles[cr*a.nCC+cc] = &tile{r: tr, c: tc, data: make([]float64, tr*tc)}
		}
	}
	return a
}

// FromMatrix chunks a dense matrix.
func FromMatrix(m *linalg.Matrix, chunkR, chunkC int) *Array2D {
	a := NewArray2D(m.Rows, m.Cols, chunkR, chunkC)
	for i := 0; i < m.Rows; i++ {
		a.setRowFrom(i, m.Row(i))
	}
	return a
}

func (a *Array2D) setRowFrom(i int, row []float64) {
	cr, lr := i/a.ChunkR, i%a.ChunkR
	for cc := 0; cc < a.nCC; cc++ {
		t := a.tiles[cr*a.nCC+cc]
		copy(t.data[lr*t.c:(lr+1)*t.c], row[cc*a.ChunkC:cc*a.ChunkC+t.c])
	}
}

// CopyRow extracts row i into dst (len ≥ Cols), tile by tile.
func (a *Array2D) CopyRow(i int, dst []float64) {
	cr, lr := i/a.ChunkR, i%a.ChunkR
	for cc := 0; cc < a.nCC; cc++ {
		t := a.tiles[cr*a.nCC+cc]
		copy(dst[cc*a.ChunkC:cc*a.ChunkC+t.c], t.data[lr*t.c:(lr+1)*t.c])
	}
}

// Materialize converts the array to a dense matrix.
func (a *Array2D) Materialize() *linalg.Matrix {
	m := linalg.NewMatrix(a.Rows, a.Cols)
	for i := 0; i < a.Rows; i++ {
		a.CopyRow(i, m.Row(i))
	}
	return m
}

// DenseView returns a zero-copy matrix view over the array's storage when
// the array is backed by a single chunk (its tile is already row-major
// dense). Multi-chunk arrays report false — their tiles are separate
// allocations, so a dense consumer needs one of the Dense gathers below.
func (a *Array2D) DenseView() (*linalg.Matrix, bool) {
	if len(a.tiles) != 1 {
		return nil, false
	}
	t := a.tiles[0]
	return linalg.DenseView(t.data, t.r, t.c), true
}

// GatherRowsDense extracts the given rows, in order, directly into one
// pooled dense matrix with chunk-aligned copies — one copy per cell.
// Release the result with linalg.PutMatrix.
func (a *Array2D) GatherRowsDense(rows []int64) *linalg.Matrix {
	m := linalg.GetMatrix(len(rows), a.Cols)
	for k, i := range rows {
		a.CopyRow(int(i), m.Row(k))
	}
	return m
}

// GatherColsDense extracts the given columns, in order, into one pooled
// dense matrix: each chunked row is staged once into pooled scratch, then
// gathered. Release the result with linalg.PutMatrix.
func (a *Array2D) GatherColsDense(cols []int64) *linalg.Matrix {
	m := linalg.GetMatrix(a.Rows, len(cols))
	src := linalg.GetSlice(a.Cols)
	for i := 0; i < a.Rows; i++ {
		a.CopyRow(i, src)
		dst := m.Row(i)
		for k, j := range cols {
			dst[k] = src[j]
		}
	}
	linalg.PutSlice(src)
	return m
}
