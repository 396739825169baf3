// Package arraydb is the native array-DBMS configuration (the paper's
// SciDB): the microarray is stored as a chunked dense 2-D array, metadata as
// 1-D attribute arrays indexed by the same dimensions, and the analytics run
// as custom chunk-aware kernels directly on the array storage — "there is no
// need to recast tables to arrays and no data copying to an external
// system". Kernels accumulate in the same element order as the dense linalg
// routines, so results are bit-identical to the reference engine.
package arraydb

import (
	"fmt"

	"github.com/genbase/genbase/internal/linalg"
	"github.com/genbase/genbase/internal/parallel"
)

// DefaultChunk is the default square chunk side. SciDB chunks are "rather
// large, typically in the Mbyte range"; 256×256 float64 = 512 KiB.
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

// NewArray2D allocates a zeroed chunked array.
func NewArray2D(rows, cols, chunkR, chunkC int) *Array2D {
	if chunkR <= 0 {
		chunkR = DefaultChunk
	}
	if chunkC <= 0 {
		chunkC = DefaultChunk
	}
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

// At reads one cell.
func (a *Array2D) At(i, j int) float64 {
	t := a.tiles[(i/a.ChunkR)*a.nCC+j/a.ChunkC]
	return t.data[(i%a.ChunkR)*t.c+j%a.ChunkC]
}

// Set writes one cell.
func (a *Array2D) Set(i, j int, v float64) {
	t := a.tiles[(i/a.ChunkR)*a.nCC+j/a.ChunkC]
	t.data[(i%a.ChunkR)*t.c+j%a.ChunkC] = v
}

// CopyRow extracts row i into dst (len ≥ Cols), tile by tile.
func (a *Array2D) CopyRow(i int, dst []float64) {
	cr, lr := i/a.ChunkR, i%a.ChunkR
	for cc := 0; cc < a.nCC; cc++ {
		t := a.tiles[cr*a.nCC+cc]
		copy(dst[cc*a.ChunkC:cc*a.ChunkC+t.c], t.data[lr*t.c:(lr+1)*t.c])
	}
}

// CopyRowRange extracts columns [lo, hi) of row i into dst[lo:hi] (dst is
// indexed by absolute column, len ≥ hi), touching only the tiles that
// overlap the range — the extraction primitive of the column-partitioned
// parallel kernels.
func (a *Array2D) CopyRowRange(i, lo, hi int, dst []float64) {
	cr, lr := i/a.ChunkR, i%a.ChunkR
	for cc := lo / a.ChunkC; cc < a.nCC && cc*a.ChunkC < hi; cc++ {
		t := a.tiles[cr*a.nCC+cc]
		base := cc * a.ChunkC
		s, e := max(lo, base), min(hi, base+t.c)
		copy(dst[s:e], t.data[lr*t.c+(s-base):lr*t.c+(e-base)])
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

// NumTiles reports the allocated chunk count (for tests and the chunk-size
// ablation).
func (a *Array2D) NumTiles() int { return len(a.tiles) }

// ColumnMeans computes per-column means, accumulating rows in ascending
// order (bit-identical to linalg.ColumnMeans).
func (a *Array2D) ColumnMeans() []float64 { return a.ColumnMeansP(0) }

// ColumnMeansP is ColumnMeans with an explicit worker count: workers own
// disjoint column ranges and stream only their tiles of each chunked row in
// ascending row order, so the result stays bit-identical to
// linalg.ColumnMeans at any worker count.
func (a *Array2D) ColumnMeansP(workers int) []float64 {
	means := make([]float64, a.Cols)
	if a.Rows == 0 {
		return means
	}
	parallel.ForSplit(workers, a.Cols, func(lo, hi int) {
		buf := linalg.GetSlice(a.Cols)
		for i := 0; i < a.Rows; i++ {
			a.CopyRowRange(i, lo, hi, buf)
			for j := lo; j < hi; j++ {
				means[j] += buf[j]
			}
		}
		linalg.PutSlice(buf)
	})
	inv := 1 / float64(a.Rows)
	for j := range means {
		means[j] *= inv
	}
	return means
}

// Covariance computes the sample covariance of the array's columns
// (bit-identical to linalg.Covariance) with the default worker count.
func (a *Array2D) Covariance() *linalg.Matrix { return a.CovarianceP(0) }

// CovarianceP streams the chunked rows once into a centered dense buffer and
// runs the shared multicore Gram kernel on it — SciDB's pdgemm hand-off,
// which materializes a dense copy exactly as handing chunks to ScaLAPACK
// does. This trades the old kernel's O(Cols) streaming buffer for
// O(Rows·Cols) scratch in exchange for the multicore Gram. The centering and
// accumulation orders match linalg.CovarianceP exactly, so the result is
// bit-identical to the reference engine at any worker count.
func (a *Array2D) CovarianceP(workers int) *linalg.Matrix {
	n := a.Cols
	if a.Rows < 2 {
		return linalg.NewMatrix(n, n)
	}
	means := a.ColumnMeansP(workers)
	centered := linalg.GetMatrix(a.Rows, n) // pooled scratch; fully overwritten
	parallel.ForSplit(workers, a.Rows, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := centered.Row(i)
			a.CopyRow(i, row)
			for j := range row {
				row[j] -= means[j]
			}
		}
	})
	c := linalg.MulATAP(centered, workers)
	linalg.PutMatrix(centered)
	c.Scale(1 / float64(a.Rows-1))
	return c
}

// ATAOperator applies x ↦ Aᵀ(A·x) directly on the chunked storage. Element
// accumulation follows ascending row/column order, matching
// linalg.ATAOperator bit-for-bit at any worker count.
type ATAOperator struct {
	A *Array2D
	// Workers is the worker count for both mat-vec passes (0 = default).
	Workers int
}

// NewATAOperator wraps a chunked array for Lanczos with the default worker
// count.
func NewATAOperator(a *Array2D) *ATAOperator { return &ATAOperator{A: a} }

// NewATAOperatorP wraps a chunked array for Lanczos with an explicit worker
// count.
func NewATAOperatorP(a *Array2D, workers int) *ATAOperator {
	return &ATAOperator{A: a, Workers: workers}
}

// Dim implements linalg.LinearOperator.
func (o *ATAOperator) Dim() int { return o.A.Cols }

// Apply implements linalg.LinearOperator. The y = A·x pass partitions output
// rows; the z = Aᵀ·y pass partitions output columns, each worker streaming
// the chunked rows in ascending order into its own row buffer — z[j] keeps
// the serial accumulation order, so results are bitwise deterministic.
func (o *ATAOperator) Apply(x []float64) []float64 {
	a := o.A
	y := linalg.GetSlice(a.Rows)
	parallel.ForSplit(o.Workers, a.Rows, func(lo, hi int) {
		buf := linalg.GetSlice(a.Cols)
		for i := lo; i < hi; i++ {
			a.CopyRow(i, buf)
			s := 0.0
			for j, v := range buf {
				s += v * x[j]
			}
			y[i] = s
		}
		linalg.PutSlice(buf)
	})
	// Arena-drawn under the LinearOperator ownership contract: Lanczos
	// returns spent result vectors to the pool. Each worker zeroes its own
	// column range before accumulating (pooled buffers arrive dirty).
	z := linalg.GetSlice(a.Cols)
	parallel.ForSplit(o.Workers, a.Cols, func(lo, hi int) {
		buf := linalg.GetSlice(a.Cols)
		for j := lo; j < hi; j++ {
			z[j] = 0
		}
		for i := 0; i < a.Rows; i++ {
			a.CopyRowRange(i, lo, hi, buf)
			yi := y[i]
			for j := lo; j < hi; j++ {
				z[j] += yi * buf[j]
			}
		}
		linalg.PutSlice(buf)
	})
	linalg.PutSlice(y)
	return z
}

func (a *Array2D) String() string {
	return fmt.Sprintf("Array2D(%d×%d, %d×%d chunks)", a.Rows, a.Cols, a.nCR, a.nCC)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
