package linalg

import "fmt"

// view.go builds stride-aware matrix views over storage the caller already
// owns — the zero-copy boundary between the data-management layer and the
// kernels (DESIGN.md §10). A view is an ordinary *Matrix whose Data aliases
// external memory; every kernel in this package goes through Row/At and is
// stride-correct, so views are accepted anywhere a materialized matrix is.
//
// Aliasing contract: a view does NOT copy. Writes through the view are
// visible in the backing store and vice versa — mutating the source after
// taking a view changes what the kernels see. The kernels themselves never
// mutate their operands (they write only freshly allocated outputs), so
// handing them a view over live storage is safe; callers that need a frozen
// snapshot, or that pass the matrix to code that mutates in place
// (bicluster masking mutates only its own Clone), must Materialize with
// Clone. TestViewKernelsMatchMaterialized pins the guarantee that kernels on
// views are bitwise identical to kernels on copies.

// ViewOf wraps rows×cols elements of data, starting at offset, with the
// given row stride (stride ≥ cols). The view shares data's storage.
func ViewOf(data []float64, offset, rows, cols, stride int) *Matrix {
	if rows < 0 || cols < 0 || stride < cols || offset < 0 {
		panic(fmt.Sprintf("linalg: invalid view %d×%d stride %d offset %d", rows, cols, stride, offset))
	}
	if rows > 0 {
		need := offset + (rows-1)*stride + cols
		if need > len(data) {
			panic(fmt.Sprintf("linalg: view needs %d elements, data has %d", need, len(data)))
		}
	}
	return &Matrix{Rows: rows, Cols: cols, Stride: stride, Data: data[offset:]}
}

// DenseView wraps a packed row-major buffer (stride == cols) — the common
// case of a storage engine whose float column already has matrix layout.
func DenseView(data []float64, rows, cols int) *Matrix {
	return ViewOf(data, 0, rows, cols, cols)
}

// VecView wraps a slice as a 1×n row view (no copy).
func VecView(v []float64) *Matrix {
	return &Matrix{Rows: 1, Cols: len(v), Stride: len(v), Data: v}
}
