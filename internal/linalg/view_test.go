package linalg

import (
	"math"
	"testing"
)

// Zero-copy contract (DESIGN.md §10): kernels fed a strided view over
// external storage must produce bitwise-identical results to the same
// kernels fed a materialized (compact) copy, at any worker count. This
// extends the PR 1 determinism suite to the view axis and exercises the
// packing GEMM stage (engaged only for non-compact operands).

// stridedView embeds an r×c matrix in a wider backing buffer so rows are
// separated by pad extra elements, and returns the view plus a compact copy.
func stridedView(r, c, pad int, seed uint64) (*Matrix, *Matrix) {
	stride := c + pad
	backing := make([]float64, 3+r*stride)
	rng := splitMix64(seed)
	for i := range backing {
		backing[i] = rng()*2 - 1 // padding holds garbage the view must skip
	}
	v := ViewOf(backing, 3, r, c, stride)
	return v, v.Clone()
}

func TestViewKernelsMatchMaterialized(t *testing.T) {
	av, am := stridedView(211, 97, 13, 1)
	bv, bm := stridedView(97, 73, 7, 2)
	x := make([]float64, 97)
	xr := make([]float64, 211)
	rng := splitMix64(3)
	for i := range x {
		x[i] = rng()*2 - 1
	}
	for i := range xr {
		xr[i] = rng()*2 - 1
	}

	for _, w := range []int{1, 3, 8} {
		bitsEqualMat(t, "MulBlockedP(view)", w, MulBlockedP(av, bv, w), MulBlockedP(am, bm, w))
		bitsEqualMat(t, "MulATA(view)", w, MulATAP(av, w), MulATAP(am, w))
		bitsEqualMat(t, "Covariance(view)", w, CovarianceP(av, w), CovarianceP(am, w))
		bitsEqualVec(t, "ColumnMeans(view)", w, ColumnMeansP(av, w), ColumnMeansP(am, w))
		bitsEqualMat(t, "CenterColumns(view)", w, CenterColumnsP(av, w), CenterColumnsP(am, w))
		bitsEqualVec(t, "MatVec(view)", w, MatVecP(av, x, w), MatVecP(am, x, w))
		bitsEqualVec(t, "MatTVec(view)", w, MatTVecP(av, xr, w), MatTVecP(am, xr, w))
	}

	svdV, err := TopKSVD(av, 5, LanczosOptions{Reorthogonalize: true, Seed: 7, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	svdM, err := TopKSVD(am, 5, LanczosOptions{Reorthogonalize: true, Seed: 7, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	bitsEqualVec(t, "TopKSVD(view)", 2, svdV.SingularValues, svdM.SingularValues)
}

// The packed kernels never skip zero multiplicands, so a strided B carrying
// NaN rows must propagate 0·NaN = NaN through the packing stage untouched.
func TestPackedGEMMPropagatesNonFinite(t *testing.T) {
	a := FromRows([][]float64{{1, 0}, {2, 3}})
	bv, _ := stridedView(2, 3, 5, 11)
	for j := 0; j < 3; j++ {
		bv.Set(0, j, float64(j+1))
		bv.Set(1, j, math.NaN())
	}
	c := MulBlockedP(a, bv, 2)
	for j := 0; j < 3; j++ {
		if !math.IsNaN(c.At(0, j)) {
			t.Fatalf("packed GEMM dropped 0·NaN at (0,%d): %v", j, c.At(0, j))
		}
	}
}

// Views alias their backing store by design: a mutation of the source after
// the view is taken IS visible through the view (documented in view.go), and
// Clone is the way to detach.
func TestViewAliasingIsVisible(t *testing.T) {
	backing := []float64{1, 2, 3, 4, 5, 6}
	v := DenseView(backing, 2, 3)
	snapshot := v.Clone()
	backing[4] = 99
	if v.At(1, 1) != 99 {
		t.Fatalf("view did not observe source mutation: got %v", v.At(1, 1))
	}
	if snapshot.At(1, 1) != 5 {
		t.Fatalf("clone must be detached from the source: got %v", snapshot.At(1, 1))
	}
	// ColView shares storage the same way.
	cv := v.ColView(1)
	if cv.Rows != 2 || cv.Cols != 1 || cv.At(1, 0) != 99 {
		t.Fatalf("ColView wrong: %dx%d %v", cv.Rows, cv.Cols, cv.At(1, 0))
	}
	backing[1] = -7
	if cv.At(0, 0) != -7 {
		t.Fatalf("ColView did not observe source mutation")
	}
}

func TestViewOfBoundsChecks(t *testing.T) {
	data := make([]float64, 10)
	for _, bad := range []func(){
		func() { ViewOf(data, 0, 2, 4, 3) },  // stride < cols
		func() { ViewOf(data, 0, 3, 3, 4) },  // needs 11 elements
		func() { ViewOf(data, 8, 1, 3, 3) },  // offset pushes past end
		func() { ViewOf(data, -1, 1, 1, 1) }, // negative offset
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic for invalid view")
				}
			}()
			bad()
		}()
	}
	// Exact fit is legal.
	v := ViewOf(data, 1, 3, 3, 3)
	if v.Rows != 3 || v.Cols != 3 {
		t.Fatal("exact-fit view rejected")
	}
}

// The arena must never recycle a view's backing store: PutMatrix is a no-op
// for anything not minted by GetMatrix, and a double Put must not hand the
// same buffer out twice.
func TestPoolOwnershipGuards(t *testing.T) {
	backing := make([]float64, 4096)
	v := DenseView(backing, 64, 64)
	PutMatrix(v) // must not enter the arena
	m := GetMatrix(64, 64)
	if &m.Data[0] == &backing[0] {
		t.Fatal("pool recycled a view's backing store")
	}

	p := GetMatrix(64, 64)
	buf := p.Data
	PutMatrix(p)
	PutMatrix(p) // double Put must be a no-op
	a := GetMatrix(64, 64)
	b := GetMatrix(64, 64)
	if len(a.Data) > 0 && len(b.Data) > 0 && &a.Data[0] == &b.Data[0] {
		t.Fatal("double Put handed one buffer to two owners")
	}
	_ = buf
	PutMatrix(a)
	PutMatrix(b)
}

// Pooled covariance must still equal the reference computation (the pooled
// scratch is invisible to results).
func TestPooledCovarianceMatchesReference(t *testing.T) {
	a := randMatrix(101, 37, 21)
	want := func() *Matrix {
		x := CenterColumnsP(a, 1)
		c := MulATAP(x, 1)
		c.Scale(1 / float64(a.Rows-1))
		return c
	}()
	for i := 0; i < 3; i++ { // repeat so the second pass reuses pooled scratch
		bitsEqualMat(t, "CovariancePooled", 1, CovarianceP(a, 1), want)
	}
}
