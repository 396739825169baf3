package rowstore

import (
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime/debug"
	"testing"

	"github.com/genbase/genbase/internal/datagen"
	"github.com/genbase/genbase/internal/engine"
	"github.com/genbase/genbase/internal/rengine"
)

func testDataset() *datagen.Dataset {
	return datagen.MustGenerate(datagen.Config{Size: datagen.Small, Scale: 0.3, Seed: 7}) // 75×75×30
}

func loaded(t *testing.T, mode Mode) *Engine {
	t.Helper()
	e := New(filepath.Join(t.TempDir(), "db"), mode)
	if err := e.Load(testDataset()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

// reference runs the same query on the vanilla-R oracle.
func reference(t *testing.T, q engine.QueryID, p engine.Params) *engine.Result {
	t.Helper()
	r := rengine.New()
	if err := r.Load(testDataset()); err != nil {
		t.Fatal(err)
	}
	res, err := r.Run(context.Background(), q, p)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestNames(t *testing.T) {
	if New("", ModeR).Name() != "postgres-r" || New("", ModeMadlib).Name() != "postgres-madlib" {
		t.Fatal("names")
	}
}

func TestMadlibLacksBiclustering(t *testing.T) {
	e := loaded(t, ModeMadlib)
	if e.Supports(engine.Q3Biclustering) {
		t.Fatal("Madlib must not support biclustering")
	}
	if _, err := e.Run(context.Background(), engine.Q3Biclustering, engine.DefaultParams()); !errors.Is(err, engine.ErrUnsupported) {
		t.Fatalf("want ErrUnsupported, got %v", err)
	}
}

func TestRegressionMatchesReference(t *testing.T) {
	p := engine.DefaultParams()
	want := reference(t, engine.Q1Regression, p).Answer.(*engine.RegressionAnswer)
	for _, mode := range []Mode{ModeR, ModeMadlib} {
		e := loaded(t, mode)
		res, err := e.Run(context.Background(), engine.Q1Regression, p)
		if err != nil {
			t.Fatalf("mode %d: %v", mode, err)
		}
		got := res.Answer.(*engine.RegressionAnswer)
		if len(got.SelectedGenes) != len(want.SelectedGenes) {
			t.Fatalf("mode %d: selected %d vs %d genes", mode, len(got.SelectedGenes), len(want.SelectedGenes))
		}
		if math.Abs(got.RSquared-want.RSquared) > 1e-9 {
			t.Fatalf("mode %d: R² %v vs %v", mode, got.RSquared, want.RSquared)
		}
		for i := range want.Coefficients {
			if math.Abs(got.Coefficients[i]-want.Coefficients[i]) > 1e-7 {
				t.Fatalf("mode %d: coef %d differs", mode, i)
			}
		}
	}
}

func TestRegressionTimingPhases(t *testing.T) {
	e := loaded(t, ModeR)
	res, err := e.Run(context.Background(), engine.Q1Regression, engine.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if res.Timing.DataManagement <= 0 || res.Timing.Analytics <= 0 {
		t.Fatalf("phases missing: %+v", res.Timing)
	}
	// The +R mode must pay a nonzero export/reformat cost.
	if res.Timing.Transfer <= 0 {
		t.Fatal("ModeR should record transfer time")
	}
}

func TestMadlibRegressionNoTransfer(t *testing.T) {
	e := loaded(t, ModeMadlib)
	res, err := e.Run(context.Background(), engine.Q1Regression, engine.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if res.Timing.Transfer != 0 {
		t.Fatal("in-database analytics should not pay transfer")
	}
}

func TestCovarianceMatchesReference(t *testing.T) {
	p := engine.DefaultParams()
	want := reference(t, engine.Q2Covariance, p).Answer.(*engine.CovarianceAnswer)
	e := loaded(t, ModeR)
	res, err := e.Run(context.Background(), engine.Q2Covariance, p)
	if err != nil {
		t.Fatal(err)
	}
	got := res.Answer.(*engine.CovarianceAnswer)
	if got.NumPatients != want.NumPatients || got.NumPairs != want.NumPairs {
		t.Fatalf("got %d patients/%d pairs, want %d/%d", got.NumPatients, got.NumPairs, want.NumPatients, want.NumPairs)
	}
	if math.Abs(got.AbsCovSum-want.AbsCovSum) > 1e-6*(1+want.AbsCovSum) {
		t.Fatalf("cov sum %v vs %v", got.AbsCovSum, want.AbsCovSum)
	}
	for i, pr := range want.TopPairs {
		if got.TopPairs[i].GeneA != pr.GeneA || got.TopPairs[i].GeneB != pr.GeneB {
			t.Fatalf("top pair %d differs: %+v vs %+v", i, got.TopPairs[i], pr)
		}
	}
}

func TestBiclusteringMatchesReference(t *testing.T) {
	p := engine.DefaultParams()
	want := reference(t, engine.Q3Biclustering, p).Answer.(*engine.BiclusterAnswer)
	e := loaded(t, ModeR)
	res, err := e.Run(context.Background(), engine.Q3Biclustering, p)
	if err != nil {
		t.Fatal(err)
	}
	got := res.Answer.(*engine.BiclusterAnswer)
	if len(got.Blocks) != len(want.Blocks) {
		t.Fatalf("%d blocks vs %d", len(got.Blocks), len(want.Blocks))
	}
	for b := range want.Blocks {
		if len(got.Blocks[b].PatientIDs) != len(want.Blocks[b].PatientIDs) {
			t.Fatalf("block %d patient count differs", b)
		}
		for i := range want.Blocks[b].PatientIDs {
			if got.Blocks[b].PatientIDs[i] != want.Blocks[b].PatientIDs[i] {
				t.Fatalf("block %d patient %d differs", b, i)
			}
		}
	}
}

func TestSVDMatchesReferenceBothModes(t *testing.T) {
	p := engine.DefaultParams()
	p.SVDK = 5
	want := reference(t, engine.Q4SVD, p).Answer.(*engine.SVDAnswer)
	for _, mode := range []Mode{ModeR, ModeMadlib} {
		e := loaded(t, mode)
		res, err := e.Run(context.Background(), engine.Q4SVD, p)
		if err != nil {
			t.Fatalf("mode %d: %v", mode, err)
		}
		got := res.Answer.(*engine.SVDAnswer)
		if got.SelectedGenes != want.SelectedGenes {
			t.Fatalf("mode %d: selected %d vs %d", mode, got.SelectedGenes, want.SelectedGenes)
		}
		for i := range want.SingularValues {
			if math.Abs(got.SingularValues[i]-want.SingularValues[i]) > 1e-6*(1+want.SingularValues[0]) {
				t.Fatalf("mode %d: σ[%d] %v vs %v", mode, i, got.SingularValues[i], want.SingularValues[i])
			}
		}
	}
}

func TestStatisticsMatchesReferenceBothModes(t *testing.T) {
	p := engine.DefaultParams()
	want := reference(t, engine.Q5Statistics, p).Answer.(*engine.StatsAnswer)
	for _, mode := range []Mode{ModeR, ModeMadlib} {
		e := loaded(t, mode)
		res, err := e.Run(context.Background(), engine.Q5Statistics, p)
		if err != nil {
			t.Fatalf("mode %d: %v", mode, err)
		}
		got := res.Answer.(*engine.StatsAnswer)
		if len(got.Terms) != len(want.Terms) {
			t.Fatalf("mode %d: %d terms vs %d", mode, len(got.Terms), len(want.Terms))
		}
		for i := range want.Terms {
			if math.Abs(got.Terms[i].Z-want.Terms[i].Z) > 1e-9 {
				t.Fatalf("mode %d: term %d z %v vs %v", mode, i, got.Terms[i].Z, want.Terms[i].Z)
			}
		}
	}
}

func TestContextTimeout(t *testing.T) {
	e := loaded(t, ModeR)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.Run(ctx, engine.Q2Covariance, engine.DefaultParams()); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

func TestRunBeforeLoad(t *testing.T) {
	e := New(filepath.Join(t.TempDir(), "db"), ModeR)
	if _, err := e.Run(context.Background(), engine.Q1Regression, engine.DefaultParams()); err == nil {
		t.Fatal("expected error before load")
	}
}

// colsegs lists the sidecar segment files in dir with their sizes.
func colsegs(t *testing.T, dir string) map[string]int64 {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*.colseg"))
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]int64, len(paths))
	for _, p := range paths {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		out[filepath.Base(p)] = fi.Size()
	}
	return out
}

// openFiles counts this process's open file descriptors, or -1 where
// /proc/self/fd is unavailable.
func openFiles() int {
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(fds)
}

// Sidecar files live exactly as long as a load: Load sweeps *.colseg files
// orphaned in the directory, a second Load rewrites the same files rather
// than adding to them (and closes the first load's), and Close removes
// them all.
func TestSidecarFilesFollowLoadAndClose(t *testing.T) {
	// With the collector off, no finalizer can close a leaked file for us.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	fdsBefore := openFiles()
	dir := filepath.Join(t.TempDir(), "db")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	orphan := filepath.Join(dir, "microarray.stale.colseg")
	if err := os.WriteFile(orphan, []byte("left by a killed process"), 0o644); err != nil {
		t.Fatal(err)
	}
	e := New(dir, ModeR)
	if err := e.Load(testDataset()); err != nil {
		t.Fatal(err)
	}
	first := colsegs(t, dir)
	if _, ok := first[filepath.Base(orphan)]; ok {
		t.Fatal("Load kept an orphaned sidecar file")
	}
	want := len(MicroarraySchema) + len(PatientsSchema) + len(GenesSchema)
	if len(first) != want {
		t.Fatalf("first load left %d sidecar files, want %d: %v", len(first), want, first)
	}
	if err := e.Load(testDataset()); err != nil {
		t.Fatal(err)
	}
	if second := colsegs(t, dir); !reflect.DeepEqual(second, first) {
		t.Fatalf("second load changed the sidecar files:\nfirst:  %v\nsecond: %v", first, second)
	}
	if _, err := e.Run(context.Background(), engine.Q1Regression, engine.DefaultParams()); err != nil {
		t.Fatalf("run after reload: %v", err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if left := colsegs(t, dir); len(left) != 0 {
		t.Fatalf("Close left sidecar files: %v", left)
	}
	if fdsAfter := openFiles(); fdsAfter != fdsBefore {
		t.Fatalf("%d open files before Load, %d after Close", fdsBefore, fdsAfter)
	}
}
