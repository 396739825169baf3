package arraydb

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/genbase/genbase/internal/datagen"
	"github.com/genbase/genbase/internal/engine"
	"github.com/genbase/genbase/internal/linalg"
	"github.com/genbase/genbase/internal/plan"
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

// TestChunkGridAcrossBoundaries checks the chunk grid of a 10×10 array over
// 3×4 chunks — ragged last chunk row and column — and that rows copied out
// across chunk boundaries hold what was stored.
func TestChunkGridAcrossBoundaries(t *testing.T) {
	m := randMatrix(10, 10, 1)
	a := FromMatrix(m, 3, 4)
	if len(a.tiles) != 4*3 {
		t.Fatalf("tiles=%d", len(a.tiles))
	}
	if last := a.tiles[len(a.tiles)-1]; last.r != 1 || last.c != 2 {
		t.Fatalf("last chunk is %d×%d, want 1×2", last.r, last.c)
	}
	row := make([]float64, a.Cols)
	for _, i := range []int{0, 3, 9} {
		a.CopyRow(i, row)
		for j, v := range m.Row(i) {
			if row[j] != v {
				t.Fatalf("cross-chunk addressing broken at (%d,%d)", i, j)
			}
		}
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
	sub := gatherRows(a, rows).Materialize()
	for k, i := range rows {
		for j := 0; j < 15; j++ {
			if sub.At(k, j) != m.At(int(i), j) {
				t.Fatalf("row gather wrong at (%d,%d)", k, j)
			}
		}
	}
	cols := []int64{0, 14, 5}
	subc := gatherCols(a, cols).Materialize()
	for i := 0; i < 20; i++ {
		for k, j := range cols {
			if subc.At(i, k) != m.At(i, int(j)) {
				t.Fatalf("col gather wrong at (%d,%d)", i, k)
			}
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

// TestMultiChunkEngineMatchesReference loads a dataset wider than one chunk
// on both axes (1300 patients × 325 genes over DefaultChunk), so every pivot
// goes through the chunk-aligned gathers, and holds every scenario's answer
// to vanilla R bit for bit.
func TestMultiChunkEngineMatchesReference(t *testing.T) {
	ds := datagen.MustGenerate(datagen.Config{Size: datagen.Small, Scale: 1.3, PatientScale: 4, Seed: 2})
	e := New()
	if err := e.Load(ds); err != nil {
		t.Fatal(err)
	}
	if e.expr.Rows <= DefaultChunk || e.expr.Cols <= DefaultChunk {
		t.Fatalf("%d×%d fits in one chunk row or column", e.expr.Rows, e.expr.Cols)
	}
	if _, ok := e.expr.DenseView(); ok {
		t.Fatal("a multi-chunk array must not offer a dense view")
	}
	r := rengine.New()
	if err := r.Load(ds); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, q := range engine.AllScenarios() {
		want, err := r.Run(ctx, q, engine.DefaultParams())
		if err != nil {
			t.Fatalf("vanilla-r %v: %v", q, err)
		}
		got, err := e.Run(ctx, q, engine.DefaultParams())
		if err != nil {
			t.Fatalf("scidb %v: %v", q, err)
		}
		if !reflect.DeepEqual(got.Answer, want.Answer) {
			t.Fatalf("%v: multi-chunk answer differs from vanilla-r", q)
		}
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
	// The view aliases the tile: writes to the array's storage show in the
	// view.
	single.tiles[0].data[3*single.Cols+4] = 123.5
	if v.At(3, 4) != 123.5 {
		t.Fatal("view does not alias array storage")
	}
	multi := FromMatrix(m, 8, 8)
	if _, ok := multi.DenseView(); ok {
		t.Fatal("multi-chunk array must not pretend to be dense")
	}
}

// TestChunkingsKeepCovarianceBits runs Q2's array path at several chunk
// sides — chunk the matrix, gather the selected rows dense, run
// linalg.CovarianceP — and holds each to the covariance of the same rows
// copied out of the dense matrix, bit for bit: chunking moves where cells
// live, never the values the kernel reads.
func TestChunkingsKeepCovarianceBits(t *testing.T) {
	m := randMatrix(70, 45, 11)
	rows := []int64{0, 2, 5, 17, 33, 34, 64, 69}
	sel := linalg.NewMatrix(len(rows), m.Cols)
	for k, i := range rows {
		copy(sel.Row(k), m.Row(int(i)))
	}
	want := linalg.CovarianceP(sel, 0)
	for _, chunk := range []int{1, 7, 16, DefaultChunk} {
		t.Run(fmt.Sprintf("chunk=%d", chunk), func(t *testing.T) {
			x := FromMatrix(m, chunk, chunk).GatherRowsDense(rows)
			got := linalg.CovarianceP(x, 0)
			linalg.PutMatrix(x)
			for i := 0; i < want.Rows; i++ {
				for j := 0; j < want.Cols; j++ {
					if math.Float64bits(got.At(i, j)) != math.Float64bits(want.At(i, j)) {
						t.Fatalf("cov(%d,%d) = %v, want %v", i, j, got.At(i, j), want.At(i, j))
					}
				}
			}
		})
	}
}

// TestSelectIDsMatchesDatasetScan holds the predicate pushdown over the
// attribute pages Load builds from the dataset to a plain scan of the
// dataset's records, one selectable attribute (and Q3's conjunction) per
// case. A column with no page is refused.
func TestSelectIDsMatchesDatasetScan(t *testing.T) {
	ds := datagen.MustGenerate(datagen.Config{Size: datagen.Small, Seed: 7})
	e := New()
	if err := e.Load(ds); err != nil {
		t.Fatal(err)
	}
	pats, genes := ds.Patients, ds.Genes
	disease := int64(pats[0].DiseaseID)
	for _, tc := range []struct {
		name  string
		table string
		preds []plan.Pred
		keep  func(i int) bool
	}{
		{"age", plan.TablePatients, []plan.Pred{{Col: plan.ColAge, Op: plan.CmpLT, Val: 40}},
			func(i int) bool { return pats[i].Age < 40 }},
		{"gender", plan.TablePatients, []plan.Pred{{Col: plan.ColGender, Op: plan.CmpEQ, Val: 'M'}},
			func(i int) bool { return pats[i].Gender == 'M' }},
		{"diseaseid", plan.TablePatients, []plan.Pred{{Col: plan.ColDiseaseID, Op: plan.CmpEQ, Val: disease}},
			func(i int) bool { return int64(pats[i].DiseaseID) == disease }},
		{"gender-and-age", plan.TablePatients, []plan.Pred{
			{Col: plan.ColGender, Op: plan.CmpEQ, Val: 'M'},
			{Col: plan.ColAge, Op: plan.CmpLT, Val: 40},
		}, func(i int) bool { return pats[i].Gender == 'M' && pats[i].Age < 40 }},
		{"function", plan.TableGenes, []plan.Pred{{Col: plan.ColFunction, Op: plan.CmpLT, Val: 250}},
			func(i int) bool { return genes[i].Function < 250 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := len(pats)
			if tc.table == plan.TableGenes {
				n = len(genes)
			}
			var want []int64
			for i := 0; i < n; i++ {
				if tc.keep(i) {
					want = append(want, int64(i))
				}
			}
			if len(want) == 0 || len(want) == n {
				t.Fatalf("predicate keeps %d of %d rows; the case must split the table", len(want), n)
			}
			got, err := e.SelectIDs(context.Background(), tc.table, tc.preds)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("SelectIDs = %v, want %v", got, want)
			}
		})
	}
	t.Run("no-page", func(t *testing.T) {
		for _, p := range []struct{ table, col string }{
			{plan.TablePatients, plan.ColDrugResponse},
			{plan.TableGenes, plan.ColAge},
		} {
			if _, err := e.SelectIDs(context.Background(), p.table, []plan.Pred{{Col: p.col, Op: plan.CmpLT, Val: 1}}); err == nil {
				t.Fatalf("select over %s.%s must fail: it has no attribute page", p.table, p.col)
			}
		}
	})
}
