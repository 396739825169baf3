package rengine

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"github.com/genbase/genbase/internal/datagen"
	"github.com/genbase/genbase/internal/engine"
)

func loadedEngine(t *testing.T) (*Engine, *datagen.Dataset) {
	t.Helper()
	ds := datagen.MustGenerate(datagen.Config{Size: datagen.Small, Scale: 0.4, Seed: 7}) // 100×100×40
	e := New()
	if err := e.Load(ds); err != nil {
		t.Fatal(err)
	}
	return e, ds
}

func TestName(t *testing.T) {
	if New().Name() != "vanilla-r" {
		t.Fatal("name")
	}
}

func TestRunBeforeLoadFails(t *testing.T) {
	if _, err := New().Run(context.Background(), engine.Q1Regression, engine.DefaultParams()); err == nil {
		t.Fatal("expected error before load")
	}
}

// TestLoadRespectsCellLimit pins R's memory wall: the budget is charged for
// the microarray as triples plus the dense pivot (4 cells per value), so the
// default budget admits the medium preset and refuses the large one.
func TestLoadRespectsCellLimit(t *testing.T) {
	for _, tc := range []struct {
		name     string
		size     datagen.Size
		maxCells int64
		wantErr  string // "" = loads
	}{
		{"small-1000-cells", datagen.Small, 1000, "250000 cells needed, limit 1000"},
		{"medium-default", datagen.Medium, 0, ""},
		{"large-default", datagen.Large, 0, "12000000 cells needed, limit 8000000"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := New()
			e.MaxCells = tc.maxCells
			err := e.Load(datagen.MustGenerate(datagen.Config{Size: tc.size, Seed: 7}))
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("want a load, got %v", err)
				}
				return
			}
			if !errors.Is(err, engine.ErrOutOfMemory) || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("want ErrOutOfMemory with %q, got %v", tc.wantErr, err)
			}
		})
	}
}

// TestLoadStoresValuesPatientMajor pins what Load keeps of the microarray:
// its value column alone, written patient-major, so it is the expression
// matrix in row-major order; the genes frame holds only the columns a plan
// names. Close drops it all and Run then reports the engine not loaded.
func TestLoadStoresValuesPatientMajor(t *testing.T) {
	e, ds := loadedEngine(t)
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
	if len(e.genes.ints) != 2 || len(e.genes.flts) != 0 {
		t.Fatalf("genes frame holds %d int and %d float columns, want geneid and function", len(e.genes.ints), len(e.genes.flts))
	}
	for gi, gn := range ds.Genes {
		if e.genes.Int("function")[gi] != int64(gn.Function) {
			t.Fatalf("gene %d function %d, want %d", gi, e.genes.Int("function")[gi], gn.Function)
		}
	}
	e.Close()
	if e.vals != nil || e.genes != nil {
		t.Fatal("Close must drop the loaded state")
	}
	if _, err := e.Run(context.Background(), engine.Q4SVD, engine.DefaultParams()); err == nil {
		t.Fatal("Run after Close must fail")
	}
}

func TestUnlimitedCells(t *testing.T) {
	ds := datagen.MustGenerate(datagen.Config{Size: datagen.Small, Scale: 0.2, Seed: 7})
	e := New()
	e.MaxCells = -1
	if err := e.Load(ds); err != nil {
		t.Fatal(err)
	}
}

func TestRegression(t *testing.T) {
	e, _ := loadedEngine(t)
	res, err := e.Run(context.Background(), engine.Q1Regression, engine.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	ans := res.Answer.(*engine.RegressionAnswer)
	if len(ans.SelectedGenes) == 0 {
		t.Fatal("no genes selected")
	}
	if len(ans.Coefficients) != len(ans.SelectedGenes)+1 {
		t.Fatalf("coefficients %d vs genes %d", len(ans.Coefficients), len(ans.SelectedGenes))
	}
	if ans.RSquared <= 0 || ans.RSquared > 1 {
		t.Fatalf("R²=%v out of range", ans.RSquared)
	}
	if res.Timing.DataManagement <= 0 || res.Timing.Analytics <= 0 {
		t.Fatalf("phases not timed: %+v", res.Timing)
	}
}

func TestRegressionFindsSignal(t *testing.T) {
	// With threshold = FunctionRange all genes (including every causal gene)
	// enter the model, so the fit should be strong. Needs patients > genes
	// for the least-squares system to be tall.
	ds := datagen.MustGenerate(datagen.Config{Size: datagen.Medium, Scale: 0.2, Seed: 7}) // 200×150
	e := New()
	if err := e.Load(ds); err != nil {
		t.Fatal(err)
	}
	p := engine.DefaultParams()
	p.FunctionThreshold = datagen.FunctionRange
	res, err := e.Run(context.Background(), engine.Q1Regression, p)
	if err != nil {
		t.Fatal(err)
	}
	ans := res.Answer.(*engine.RegressionAnswer)
	if ans.RSquared < 0.8 {
		t.Fatalf("expected strong fit with all causal genes, R²=%v", ans.RSquared)
	}
}

func TestCovariance(t *testing.T) {
	e, ds := loadedEngine(t)
	res, err := e.Run(context.Background(), engine.Q2Covariance, engine.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	ans := res.Answer.(*engine.CovarianceAnswer)
	if ans.NumPairs < 1 {
		t.Fatal("no pairs above threshold")
	}
	total := ds.Dims.Genes * (ds.Dims.Genes - 1) / 2
	// Top 10% should keep roughly 10% of pairs (ties can add a few).
	if ans.NumPairs < total/20 || ans.NumPairs > total/5 {
		t.Fatalf("kept %d of %d pairs", ans.NumPairs, total)
	}
	if len(ans.TopPairs) == 0 {
		t.Fatal("no top pairs reported")
	}
	for _, pr := range ans.TopPairs {
		if pr.GeneA >= pr.GeneB {
			t.Fatal("pairs must be ordered i<j")
		}
		if pr.FunctionA != int64(ds.Genes[pr.GeneA].Function) {
			t.Fatal("metadata join wrong")
		}
	}
}

func TestBiclustering(t *testing.T) {
	e, ds := loadedEngine(t)
	res, err := e.Run(context.Background(), engine.Q3Biclustering, engine.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	ans := res.Answer.(*engine.BiclusterAnswer)
	if len(ans.Blocks) == 0 {
		t.Fatal("no biclusters found")
	}
	for _, b := range ans.Blocks {
		for _, pid := range b.PatientIDs {
			pt := ds.Patients[pid]
			if pt.Gender != 'M' || pt.Age >= 40 {
				t.Fatalf("patient %d violates the Q3 filter", pid)
			}
		}
		for _, g := range b.GeneIDs {
			if g < 0 || g >= ds.Dims.Genes {
				t.Fatalf("gene id %d out of range", g)
			}
		}
	}
}

func TestSVD(t *testing.T) {
	e, _ := loadedEngine(t)
	res, err := e.Run(context.Background(), engine.Q4SVD, engine.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	ans := res.Answer.(*engine.SVDAnswer)
	if len(ans.SingularValues) != 10 {
		t.Fatalf("got %d singular values", len(ans.SingularValues))
	}
	for i := 1; i < len(ans.SingularValues); i++ {
		if ans.SingularValues[i] > ans.SingularValues[i-1]+1e-9 {
			t.Fatal("singular values must descend")
		}
	}
	if ans.SingularValues[0] <= 0 {
		t.Fatal("top singular value must be positive")
	}
}

func TestStatistics(t *testing.T) {
	e, ds := loadedEngine(t)
	res, err := e.Run(context.Background(), engine.Q5Statistics, engine.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	ans := res.Answer.(*engine.StatsAnswer)
	if len(ans.Terms) != ds.Dims.GOTerms {
		t.Fatalf("got %d terms, want %d", len(ans.Terms), ds.Dims.GOTerms)
	}
	if ans.SampledPatients < 1 {
		t.Fatal("empty sample")
	}
	// At least one planted enriched term should surface near the top.
	top := ans.TopEnriched(len(ds.EnrichedTerms) * 3)
	found := false
	for _, ts := range top {
		for _, planted := range ds.EnrichedTerms {
			if ts.Term == planted {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("no planted enriched term in top %d", len(top))
	}
}

func TestContextCancellation(t *testing.T) {
	e, _ := loadedEngine(t)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := e.Run(ctx, engine.Q2Covariance, engine.DefaultParams()); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
}

func TestAllQueriesSupported(t *testing.T) {
	e := New()
	for _, q := range engine.AllQueries() {
		if !e.Supports(q) {
			t.Fatalf("R should support %v", q)
		}
	}
}
