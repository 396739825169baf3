package colstore

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

func TestBuildIntColumnEncodings(t *testing.T) {
	sorted := make([]int64, 1000)
	for i := range sorted {
		sorted[i] = int64(i / 100) // 10 runs
	}
	if BuildIntColumn(sorted).Encoding() != EncRLE {
		t.Fatal("sorted column should RLE-encode")
	}
	lowCard := make([]int64, 1000)
	for i := range lowCard {
		lowCard[i] = int64(i % 7 * 13)
	}
	if BuildIntColumn(lowCard).Encoding() != EncDict {
		t.Fatal("low-cardinality column should dict-encode")
	}
	narrow := make([]int64, 1000)
	for i := range narrow {
		narrow[i] = int64(i * 2654435761 % 1000003)
	}
	if BuildIntColumn(narrow).Encoding() != EncPacked {
		t.Fatal("narrow-domain column should bit-pack")
	}
	random := make([]int64, 1000)
	for i := range random {
		random[i] = int64(i*2654435761%1000003) << 41 // spread past 32 packed bits
	}
	if BuildIntColumn(random).Encoding() != EncRaw {
		t.Fatal("wide high-cardinality column should stay raw")
	}
}

// Property: every encoding decodes back to the original values.
func TestIntColumnRoundTrip(t *testing.T) {
	f := func(vals []int64, mode uint8) bool {
		// Shape the data to hit different encodings.
		switch mode % 3 {
		case 0: // runs
			for i := range vals {
				vals[i] = vals[i] % 3
			}
		case 1: // low cardinality
			for i := range vals {
				vals[i] = vals[i] % 100
			}
		}
		c := BuildIntColumn(vals)
		if c.Len() != len(vals) {
			return false
		}
		for i := range vals {
			if c.At(i) != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestSelectMatchesScan(t *testing.T) {
	f := func(vals []int64) bool {
		for i := range vals {
			vals[i] = vals[i] % 50
		}
		c := BuildIntColumn(vals)
		pred := func(v int64) bool { return v%3 == 1 }
		sel := c.Select(pred, nil)
		var want []int32
		for i, v := range vals {
			if pred(v) {
				want = append(want, int32(i))
			}
		}
		if len(sel) != len(want) {
			return false
		}
		for i := range sel {
			if sel[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSelectRefineConjunction(t *testing.T) {
	vals := []int64{1, 2, 3, 4, 5, 6, 7, 8}
	c := BuildIntColumn(vals)
	sel := c.Select(func(v int64) bool { return v > 2 }, nil)
	sel = c.SelectRefine(func(v int64) bool { return v%2 == 0 }, sel)
	want := []int32{3, 5, 7} // values 4, 6, 8
	if len(sel) != len(want) {
		t.Fatalf("sel=%v", sel)
	}
	for i := range want {
		if sel[i] != want[i] {
			t.Fatalf("sel=%v", sel)
		}
	}
}

func TestGather(t *testing.T) {
	vals := make([]int64, 100)
	for i := range vals {
		vals[i] = int64(i / 25)
	}
	c := BuildIntColumn(vals)
	got := c.Gather([]int32{0, 30, 99}, nil)
	if got[0] != 0 || got[1] != 1 || got[2] != 3 {
		t.Fatalf("gather=%v", got)
	}
}

// --- engine-level cross-validation against the vanilla-R oracle ---

func testDataset() *datagen.Dataset {
	return datagen.MustGenerate(datagen.Config{Size: datagen.Small, Scale: 0.3, Seed: 7})
}

func loadedPair(t *testing.T, mode Mode) (*Engine, *rengine.Engine) {
	t.Helper()
	c := New(mode)
	if err := c.Load(testDataset()); err != nil {
		t.Fatal(err)
	}
	r := rengine.New()
	if err := r.Load(testDataset()); err != nil {
		t.Fatal(err)
	}
	return c, r
}

// TestLoadStoresValuesPatientMajor pins what Load keeps of the microarray:
// its value column alone, written patient-major, so it is the expression
// matrix in row-major order. Close drops it, and with it the not-loaded
// check fails Run.
func TestLoadStoresValuesPatientMajor(t *testing.T) {
	ds := testDataset()
	e := New(ModeUDF)
	if err := e.Load(ds); err != nil {
		t.Fatal(err)
	}
	p, g := ds.Dims.Patients, ds.Dims.Genes
	if len(e.vals) != p*g {
		t.Fatalf("value column holds %d cells, want %d×%d", len(e.vals), p, g)
	}
	for pi := 0; pi < p; pi++ {
		for gi, v := range ds.Expression.Row(pi) {
			if math.Float64bits(e.vals[pi*g+gi]) != math.Float64bits(v) {
				t.Fatalf("vals[%d] = %v, want expression (%d,%d) = %v", pi*g+gi, e.vals[pi*g+gi], pi, gi, v)
			}
		}
	}
	if _, err := e.Run(context.Background(), engine.Q4SVD, engine.DefaultParams()); err != nil {
		t.Fatalf("loaded engine: %v", err)
	}
	e.Close()
	if e.vals != nil {
		t.Fatal("Close must drop the value column")
	}
	if _, err := e.Run(context.Background(), engine.Q4SVD, engine.DefaultParams()); err == nil {
		t.Fatal("Run after Close must fail")
	}
}

func TestNames(t *testing.T) {
	if New(ModeR).Name() != "colstore-r" || New(ModeUDF).Name() != "colstore-udf" {
		t.Fatal("names")
	}
}

func TestAllQueriesMatchReference(t *testing.T) {
	p := engine.DefaultParams()
	p.SVDK = 5
	ctx := context.Background()
	for _, mode := range []Mode{ModeR, ModeUDF} {
		c, r := loadedPair(t, mode)
		for _, q := range engine.AllQueries() {
			want, err := r.Run(ctx, q, p)
			if err != nil {
				t.Fatalf("reference %v: %v", q, err)
			}
			got, err := c.Run(ctx, q, p)
			if err != nil {
				t.Fatalf("mode %d %v: %v", mode, q, err)
			}
			compareAnswers(t, q, got.Answer, want.Answer)
		}
	}
}

func compareAnswers(t *testing.T, q engine.QueryID, got, want any) {
	t.Helper()
	switch q {
	case engine.Q1Regression:
		g, w := got.(*engine.RegressionAnswer), want.(*engine.RegressionAnswer)
		if len(g.SelectedGenes) != len(w.SelectedGenes) || math.Abs(g.RSquared-w.RSquared) > 1e-9 {
			t.Fatalf("%v: answers differ (R² %v vs %v)", q, g.RSquared, w.RSquared)
		}
	case engine.Q2Covariance:
		g, w := got.(*engine.CovarianceAnswer), want.(*engine.CovarianceAnswer)
		if g.NumPairs != w.NumPairs || math.Abs(g.AbsCovSum-w.AbsCovSum) > 1e-6*(1+w.AbsCovSum) {
			t.Fatalf("%v: %d/%v vs %d/%v", q, g.NumPairs, g.AbsCovSum, w.NumPairs, w.AbsCovSum)
		}
	case engine.Q3Biclustering:
		g, w := got.(*engine.BiclusterAnswer), want.(*engine.BiclusterAnswer)
		if len(g.Blocks) != len(w.Blocks) {
			t.Fatalf("%v: %d blocks vs %d", q, len(g.Blocks), len(w.Blocks))
		}
		for b := range w.Blocks {
			if len(g.Blocks[b].PatientIDs) != len(w.Blocks[b].PatientIDs) ||
				len(g.Blocks[b].GeneIDs) != len(w.Blocks[b].GeneIDs) {
				t.Fatalf("%v: block %d shape differs", q, b)
			}
			for i := range w.Blocks[b].PatientIDs {
				if g.Blocks[b].PatientIDs[i] != w.Blocks[b].PatientIDs[i] {
					t.Fatalf("%v: block %d patients differ", q, b)
				}
			}
		}
	case engine.Q4SVD:
		g, w := got.(*engine.SVDAnswer), want.(*engine.SVDAnswer)
		for i := range w.SingularValues {
			if math.Abs(g.SingularValues[i]-w.SingularValues[i]) > 1e-6*(1+w.SingularValues[0]) {
				t.Fatalf("%v: σ[%d] %v vs %v", q, i, g.SingularValues[i], w.SingularValues[i])
			}
		}
	case engine.Q5Statistics:
		g, w := got.(*engine.StatsAnswer), want.(*engine.StatsAnswer)
		if len(g.Terms) != len(w.Terms) {
			t.Fatalf("%v: term counts differ", q)
		}
		for i := range w.Terms {
			if math.Abs(g.Terms[i].Z-w.Terms[i].Z) > 1e-9 {
				t.Fatalf("%v: term %d z differs", q, i)
			}
		}
	}
}

func TestUDFBiclusterPaysTextTransferRepeatedly(t *testing.T) {
	p := engine.DefaultParams()
	ctx := context.Background()
	udf := New(ModeUDF)
	if err := udf.Load(testDataset()); err != nil {
		t.Fatal(err)
	}
	rmode := New(ModeR)
	if err := rmode.Load(testDataset()); err != nil {
		t.Fatal(err)
	}
	ru, err := udf.Run(ctx, engine.Q3Biclustering, p)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := rmode.Run(ctx, engine.Q3Biclustering, p)
	if err != nil {
		t.Fatal(err)
	}
	// The UDF path serializes once per bicluster; the R path once total. With
	// ≥2 biclusters found the UDF transfer cost must exceed the single-export
	// cost. (Both must still agree on the answer — checked above.)
	blocks := len(ru.Answer.(*engine.BiclusterAnswer).Blocks)
	if blocks >= 2 && ru.Timing.Transfer <= rr.Timing.Transfer {
		t.Fatalf("UDF bicluster transfer %v should exceed single export %v (%d blocks)",
			ru.Timing.Transfer, rr.Timing.Transfer, blocks)
	}
}

func TestUDFRegressionCheaperTransferThanR(t *testing.T) {
	p := engine.DefaultParams()
	ctx := context.Background()
	udf := New(ModeUDF)
	udf.Load(testDataset())
	rmode := New(ModeR)
	rmode.Load(testDataset())
	ru, err := udf.Run(ctx, engine.Q1Regression, p)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := rmode.Run(ctx, engine.Q1Regression, p)
	if err != nil {
		t.Fatal(err)
	}
	if ru.Timing.Transfer >= rr.Timing.Transfer {
		t.Fatalf("UDF transfer %v should be cheaper than text export %v", ru.Timing.Transfer, rr.Timing.Transfer)
	}
}

func TestPivotDenseFullSelectionIsAView(t *testing.T) {
	ds, err := datagen.Generate(datagen.Config{Size: datagen.Small, Seed: 3, Scale: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	e := New(ModeUDF)
	if err := e.Load(ds); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	m, err := e.Pivot(ctx, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if &m.Data[0] != &e.vals[0] {
		t.Fatal("full pivot must be a zero-copy view over the value column")
	}
	// An identity gene selection (every id, in order) is also served as a
	// view — the shape a predicate that nothing fails produces.
	allGenes := make([]int64, e.numGenes)
	for i := range allGenes {
		allGenes[i] = int64(i)
	}
	m2, err := e.Pivot(ctx, nil, allGenes)
	if err != nil {
		t.Fatal(err)
	}
	if &m2.Data[0] != &e.vals[0] {
		t.Fatal("identity gene selection must be a zero-copy view")
	}
	// A genuine subset must NOT alias storage (it is a pooled gather).
	m3, err := e.Pivot(ctx, []int64{1, 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if &m3.Data[0] == &e.vals[1*e.numGenes] {
		t.Fatal("subset pivot must not alias the value column")
	}
	linalg.PutMatrix(m3)
}
