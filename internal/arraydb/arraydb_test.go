package arraydb

import (
	"context"
	"math"
	"testing"
	"testing/quick"

	"github.com/genbase/genbase/internal/datagen"
	"github.com/genbase/genbase/internal/engine"
	"github.com/genbase/genbase/internal/linalg"
	"github.com/genbase/genbase/internal/rengine"
)

func randMatrix(r, c int, seed uint64) *linalg.Matrix {
	rng := datagen.NewRNG(seed)
	m := linalg.NewMatrix(r, c)
	for i := range m.Data {
		m.Data[i] = rng.Float64()*2 - 1
	}
	return m
}

func TestFromMatrixRoundTrip(t *testing.T) {
	f := func(seed uint64) bool {
		r := int(seed%50) + 1
		c := int((seed>>8)%50) + 1
		chunk := int((seed>>16)%7) + 2
		m := randMatrix(r, c, seed)
		a := FromMatrix(m, chunk, chunk)
		back := a.Materialize()
		return linalg.MaxAbsDiff(m, back) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestAtSetAcrossChunks(t *testing.T) {
	a := NewArray2D(10, 10, 3, 4)
	a.Set(9, 9, 5)
	a.Set(0, 0, 1)
	a.Set(3, 4, 2) // exactly on chunk boundaries
	if a.At(9, 9) != 5 || a.At(0, 0) != 1 || a.At(3, 4) != 2 {
		t.Fatal("cross-chunk addressing broken")
	}
	if a.NumTiles() != 4*3 {
		t.Fatalf("tiles=%d", a.NumTiles())
	}
}

// gatherRows and gatherCols are the chunked-to-chunked gathers the engine's
// pivots used before GatherRowsDense/GatherColsDense: each builds a new
// chunked array holding the given rows (columns), in order. They stay here
// as the reference the dense gathers are held to.
func gatherRows(a *Array2D, rows []int64) *Array2D {
	out := NewArray2D(len(rows), a.Cols, a.ChunkR, a.ChunkC)
	buf := make([]float64, a.Cols)
	for k, i := range rows {
		a.CopyRow(int(i), buf)
		out.setRowFrom(k, buf)
	}
	return out
}

func gatherCols(a *Array2D, cols []int64) *Array2D {
	out := NewArray2D(a.Rows, len(cols), a.ChunkR, a.ChunkC)
	src := make([]float64, a.Cols)
	dst := make([]float64, len(cols))
	for i := 0; i < a.Rows; i++ {
		a.CopyRow(i, src)
		for k, j := range cols {
			dst[k] = src[j]
		}
		out.setRowFrom(i, dst)
	}
	return out
}

func TestGatherRowsCols(t *testing.T) {
	m := randMatrix(20, 15, 3)
	a := FromMatrix(m, 6, 6)
	rows := []int64{3, 7, 19}
	sub := gatherRows(a, rows)
	for k, i := range rows {
		for j := 0; j < 15; j++ {
			if sub.At(k, j) != m.At(int(i), j) {
				t.Fatalf("row gather wrong at (%d,%d)", k, j)
			}
		}
	}
	cols := []int64{0, 14, 5}
	subc := gatherCols(a, cols)
	for i := 0; i < 20; i++ {
		for k, j := range cols {
			if subc.At(i, k) != m.At(i, int(j)) {
				t.Fatalf("col gather wrong at (%d,%d)", i, k)
			}
		}
	}
}

// The chunked covariance kernel must be bit-identical to the dense one.
func TestChunkedCovarianceBitIdentical(t *testing.T) {
	f := func(seed uint64) bool {
		m := randMatrix(int(seed%40)+2, int((seed>>8)%20)+2, seed)
		a := FromMatrix(m, 7, 5)
		return linalg.MaxAbsDiff(a.Covariance(), linalg.Covariance(m)) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestChunkedColumnMeansBitIdentical(t *testing.T) {
	m := randMatrix(33, 17, 9)
	a := FromMatrix(m, 8, 8)
	got := a.ColumnMeans()
	want := linalg.ColumnMeans(m)
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("mean[%d] differs", j)
		}
	}
}

// The chunked AᵀA operator must match the dense operator bit-for-bit so
// Lanczos runs identically.
func TestChunkedATAOperatorBitIdentical(t *testing.T) {
	m := randMatrix(29, 13, 11)
	a := FromMatrix(m, 6, 4)
	op := NewATAOperator(a)
	dense := linalg.ATAOperator{A: m}
	x := make([]float64, 13)
	rng := datagen.NewRNG(5)
	for i := range x {
		x[i] = rng.Float64()
	}
	got := op.Apply(x)
	want := dense.Apply(x)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Apply[%d]: %v vs %v", i, got[i], want[i])
		}
	}
}

// --- engine-level cross-validation ---

func testDataset() *datagen.Dataset {
	return datagen.MustGenerate(datagen.Config{Size: datagen.Small, Scale: 0.3, Seed: 7})
}

func TestEngineMatchesReferenceAllQueries(t *testing.T) {
	p := engine.DefaultParams()
	p.SVDK = 5
	ctx := context.Background()
	e := New()
	if err := e.Load(testDataset()); err != nil {
		t.Fatal(err)
	}
	r := rengine.New()
	if err := r.Load(testDataset()); err != nil {
		t.Fatal(err)
	}
	for _, q := range engine.AllQueries() {
		want, err := r.Run(ctx, q, p)
		if err != nil {
			t.Fatalf("reference %v: %v", q, err)
		}
		got, err := e.Run(ctx, q, p)
		if err != nil {
			t.Fatalf("scidb %v: %v", q, err)
		}
		switch q {
		case engine.Q1Regression:
			g, w := got.Answer.(*engine.RegressionAnswer), want.Answer.(*engine.RegressionAnswer)
			if math.Abs(g.RSquared-w.RSquared) > 1e-9 {
				t.Fatalf("R² %v vs %v", g.RSquared, w.RSquared)
			}
		case engine.Q2Covariance:
			g, w := got.Answer.(*engine.CovarianceAnswer), want.Answer.(*engine.CovarianceAnswer)
			if g.NumPairs != w.NumPairs || g.Threshold != w.Threshold {
				t.Fatalf("pairs %d/%v vs %d/%v", g.NumPairs, g.Threshold, w.NumPairs, w.Threshold)
			}
		case engine.Q3Biclustering:
			g, w := got.Answer.(*engine.BiclusterAnswer), want.Answer.(*engine.BiclusterAnswer)
			if len(g.Blocks) != len(w.Blocks) {
				t.Fatalf("blocks %d vs %d", len(g.Blocks), len(w.Blocks))
			}
			for b := range w.Blocks {
				if len(g.Blocks[b].GeneIDs) != len(w.Blocks[b].GeneIDs) {
					t.Fatalf("block %d differs", b)
				}
			}
		case engine.Q4SVD:
			g, w := got.Answer.(*engine.SVDAnswer), want.Answer.(*engine.SVDAnswer)
			for i := range w.SingularValues {
				if g.SingularValues[i] != w.SingularValues[i] {
					t.Fatalf("σ[%d] %v vs %v (should be bit-identical)", i, g.SingularValues[i], w.SingularValues[i])
				}
			}
		case engine.Q5Statistics:
			g, w := got.Answer.(*engine.StatsAnswer), want.Answer.(*engine.StatsAnswer)
			for i := range w.Terms {
				if g.Terms[i].Z != w.Terms[i].Z {
					t.Fatalf("term %d z differs", i)
				}
			}
		}
	}
}

func TestNoTransferWithoutAccelerator(t *testing.T) {
	e := New()
	if err := e.Load(testDataset()); err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(context.Background(), engine.Q2Covariance, engine.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if res.Timing.Transfer != 0 {
		t.Fatal("native SciDB should have zero transfer time")
	}
	if res.Timing.DataManagement <= 0 {
		t.Fatal("DM not timed")
	}
}

func TestCustomChunkSize(t *testing.T) {
	e := New()
	e.ChunkSize = 16
	if err := e.Load(testDataset()); err != nil {
		t.Fatal(err)
	}
	if e.expr.ChunkR != 16 {
		t.Fatal("chunk size not applied")
	}
	if _, err := e.Run(context.Background(), engine.Q4SVD, engine.DefaultParams()); err != nil {
		t.Fatal(err)
	}
}

func TestDenseGathersMatchChunkedGathers(t *testing.T) {
	m := randMatrix(70, 55, 3)
	a := FromMatrix(m, 16, 16)
	rows := []int64{0, 3, 17, 64, 69}
	cols := []int64{54, 0, 16, 31}

	viaChunks := gatherRows(a, rows).Materialize()
	dense := a.GatherRowsDense(rows)
	if linalg.MaxAbsDiff(viaChunks, dense) != 0 {
		t.Fatal("GatherRowsDense diverges from the chunked gather")
	}
	linalg.PutMatrix(dense)

	viaChunks = gatherCols(a, cols).Materialize()
	dense = a.GatherColsDense(cols)
	if linalg.MaxAbsDiff(viaChunks, dense) != 0 {
		t.Fatal("GatherColsDense diverges from the chunked gather")
	}
	linalg.PutMatrix(dense)
}

func TestDenseViewSingleChunkOnly(t *testing.T) {
	m := randMatrix(20, 30, 4)
	single := FromMatrix(m, 64, 64) // one tile holds everything
	v, ok := single.DenseView()
	if !ok {
		t.Fatal("single-chunk array must offer a view")
	}
	if linalg.MaxAbsDiff(v, m) != 0 {
		t.Fatal("view content wrong")
	}
	// The view aliases the tile: writes through the array show in the view.
	single.Set(3, 4, 123.5)
	if v.At(3, 4) != 123.5 {
		t.Fatal("view does not alias array storage")
	}
	multi := FromMatrix(m, 8, 8)
	if _, ok := multi.DenseView(); ok {
		t.Fatal("multi-chunk array must not pretend to be dense")
	}
}
