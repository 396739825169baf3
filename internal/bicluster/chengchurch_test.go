package bicluster

import (
	"context"
	"errors"
	"testing"
	"testing/quick"

	"github.com/genbase/genbase/internal/linalg"
)

func noiseMatrix(r, c int, amplitude float64, seed uint64) *linalg.Matrix {
	rng := splitMix64(seed)
	m := linalg.NewMatrix(r, c)
	for i := range m.Data {
		m.Data[i] = amplitude * (rng()*2 - 1)
	}
	return m
}

// plant overwrites a block with an additive pattern rowEffect+colEffect,
// which has MSR exactly zero.
func plant(m *linalg.Matrix, rows, cols []int, seed uint64) {
	rng := splitMix64(seed)
	rowEff := make([]float64, len(rows))
	colEff := make([]float64, len(cols))
	for i := range rowEff {
		rowEff[i] = rng() * 2
	}
	for j := range colEff {
		colEff[j] = rng() * 2
	}
	for a, i := range rows {
		for b, j := range cols {
			m.Set(i, j, 5+rowEff[a]+colEff[b])
		}
	}
}

func TestMSRZeroForAdditivePattern(t *testing.T) {
	m := linalg.NewMatrix(6, 6)
	rows := []int{0, 1, 2, 3, 4, 5}
	cols := rows
	plant(m, rows, cols, 3)
	if msr := msrOf(m, rows, cols); msr > 1e-18 {
		t.Fatalf("additive pattern must have zero MSR, got %v", msr)
	}
}

func TestMSRPositiveForNoise(t *testing.T) {
	m := noiseMatrix(8, 8, 1, 4)
	rows := []int{0, 1, 2, 3, 4, 5, 6, 7}
	if msr := msrOf(m, rows, rows); msr < 1e-4 {
		t.Fatalf("noise should have positive MSR, got %v", msr)
	}
}

func TestMSREmptySelection(t *testing.T) {
	if msrOf(linalg.NewMatrix(3, 3), nil, []int{0}) != 0 {
		t.Fatal("empty selection must yield 0")
	}
}

func TestRunRejectsEmptyMatrix(t *testing.T) {
	if _, err := Run(linalg.NewMatrix(0, 5), Options{}); err == nil {
		t.Fatal("expected error on empty matrix")
	}
}

func TestRunRecoversPlantedBicluster(t *testing.T) {
	m := noiseMatrix(30, 24, 4, 7)
	rows := []int{0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28}
	cols := []int{1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23}
	plant(m, rows, cols, 8)
	res, err := Run(m, Options{Delta: 0.5, MaxBiclusters: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	bc := res[0]
	if bc.MSR > 0.5 {
		t.Fatalf("bicluster MSR %v exceeds delta", bc.MSR)
	}
	// The planted block must be substantially recovered.
	rowSet := map[int]bool{}
	for _, i := range bc.Rows {
		rowSet[i] = true
	}
	colSet := map[int]bool{}
	for _, j := range bc.Cols {
		colSet[j] = true
	}
	foundRows, foundCols := 0, 0
	for _, i := range rows {
		if rowSet[i] {
			foundRows++
		}
	}
	for _, j := range cols {
		if colSet[j] {
			foundCols++
		}
	}
	if foundRows < len(rows)*2/3 || foundCols < len(cols)*2/3 {
		t.Fatalf("recovered %d/%d rows, %d/%d cols", foundRows, len(rows), foundCols, len(cols))
	}
}

func TestRunFindsMultipleBiclusters(t *testing.T) {
	m := noiseMatrix(50, 40, 5, 11)
	plant(m, []int{0, 1, 2, 3, 4, 5, 6}, []int{0, 1, 2, 3, 4, 5}, 12)
	plant(m, []int{20, 21, 22, 23, 24, 25}, []int{20, 21, 22, 23, 24}, 13)
	res, err := Run(m, Options{Delta: 0.5, MaxBiclusters: 3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) < 2 {
		t.Fatalf("expected ≥2 biclusters, got %d", len(res))
	}
	for k, bc := range res {
		if bc.MSR > 0.5+1e-9 {
			t.Fatalf("bicluster %d MSR=%v exceeds delta", k, bc.MSR)
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	m := noiseMatrix(25, 25, 2, 42)
	plant(m, []int{1, 2, 3, 4, 5}, []int{6, 7, 8, 9}, 43)
	a, err := Run(m.Clone(), Options{Delta: 0.3, MaxBiclusters: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(m.Clone(), Options{Delta: 0.3, MaxBiclusters: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("non-deterministic count %d vs %d", len(a), len(b))
	}
	for k := range a {
		if len(a[k].Rows) != len(b[k].Rows) || len(a[k].Cols) != len(b[k].Cols) {
			t.Fatalf("non-deterministic bicluster %d", k)
		}
		for i := range a[k].Rows {
			if a[k].Rows[i] != b[k].Rows[i] {
				t.Fatalf("row sets differ at bicluster %d", k)
			}
		}
	}
}

func TestRunRespectsMinSizes(t *testing.T) {
	m := noiseMatrix(20, 20, 10, 99)
	res, err := Run(m, Options{Delta: 1e-12, MaxBiclusters: 1, MinRows: 4, MinCols: 4, Seed: 3})
	if err != nil {
		// With an impossible delta on pure noise, failing to find a bicluster
		// is acceptable behaviour.
		return
	}
	for _, bc := range res {
		if len(bc.Rows) < 4 || len(bc.Cols) < 4 {
			t.Fatalf("bicluster smaller than minimum: %dx%d", len(bc.Rows), len(bc.Cols))
		}
	}
}

func TestDefaultsApplied(t *testing.T) {
	m := noiseMatrix(10, 10, 1, 5)
	var o Options
	o.setDefaults(m)
	if o.Alpha != 1.2 || o.MaxBiclusters != 5 || o.MinRows != 2 || o.MinCols != 2 {
		t.Fatalf("defaults wrong: %+v", o)
	}
	if o.Delta <= 0 {
		t.Fatal("delta default must be positive")
	}
}

// Property: every returned bicluster has indices in range, sorted ascending,
// without duplicates, and MSR ≤ delta (against the original matrix the
// first time, i.e. for the first bicluster).
func TestRunIndexInvariants(t *testing.T) {
	f := func(seed uint64) bool {
		r := int(seed%20) + 8
		c := int((seed>>8)%20) + 8
		m := noiseMatrix(r, c, 3, seed)
		plant(m, []int{0, 1, 2, 3}, []int{0, 1, 2, 3}, seed^1)
		res, err := Run(m, Options{Delta: 1.0, MaxBiclusters: 2, Seed: seed})
		if err != nil {
			return true // noise-only failure is allowed
		}
		for _, bc := range res {
			prev := -1
			for _, i := range bc.Rows {
				if i <= prev || i >= r {
					return false
				}
				prev = i
			}
			prev = -1
			for _, j := range bc.Cols {
				if j <= prev || j >= c {
					return false
				}
				prev = j
			}
		}
		return res[0].MSR <= 1.0+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// A dead context stops the search before its first sweep, and Run/FindOne
// (the Background wrappers) are unaffected.
func TestRunCtxHonoursContext(t *testing.T) {
	m := noiseMatrix(30, 24, 4, 7)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if blocks, err := RunCtx(ctx, m, Options{Seed: 1}); blocks != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("RunCtx on a dead context = %v, %v", blocks, err)
	}
	if bc, err := FindOneCtx(ctx, m, Options{}.WithDefaults(m)); bc != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("FindOneCtx on a dead context = %v, %v", bc, err)
	}
	if _, err := Run(m, Options{Seed: 1}); err != nil {
		t.Fatal(err)
	}
}
