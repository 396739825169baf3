package mapreduce

// Host-independent floors for the MapReduce runtime, on the shape that
// dominates Hadoop's covariance query: every mapper emits the same ascending
// key set with float partials and the reducers sum them. Then the covariance
// jobs themselves: their record count, their shuffle bytes and their speed
// against the element-keyed layout (mahout_ref_test.go).

import (
	"context"
	"math/rand"
	"os"
	"slices"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"github.com/genbase/genbase/internal/datagen"
	"github.com/genbase/genbase/internal/engine"
	"github.com/genbase/genbase/internal/linalg"
)

const (
	shuffleMappers = 8
	shuffleKeys    = 26000 // per mapper: 208 000 records shuffled in all
)

// shuffleJobs returns the same sum job for the runtime and for the reference:
// mapper m emits key j with partial (m+1)·(j+0.5) for every j in key order.
func shuffleJobs() (*Job, *refJob) {
	input := make([][]string, shuffleMappers)
	for m := range input {
		input[m] = []string{strconv.Itoa(m + 1)}
	}
	job := &Job{
		Name:        "shuffle",
		Input:       input,
		NumReducers: 8,
		MapSplit: func(split []string, out *Emitter) error {
			scale, err := strconv.ParseFloat(split[0], 64)
			if err != nil {
				return err
			}
			partials := make([]float64, shuffleKeys)
			for j := range partials {
				partials[j] = scale * (float64(j) + 0.5)
			}
			// One record per element, so the floor times the runtime's
			// per-record path rather than the jobs' row layout.
			refEmitVector(out, "", partials)
			return nil
		},
		Reduce: sumReduce,
	}
	ref := &refJob{
		Name:        job.Name,
		Input:       input,
		NumReducers: job.NumReducers,
		MapSplit: func(split []string, emit func(k, v string)) error {
			scale, err := strconv.ParseFloat(split[0], 64)
			if err != nil {
				return err
			}
			for j := 0; j < shuffleKeys; j++ {
				emit(pad(strconv.Itoa(j)), strconv.FormatFloat(scale*(float64(j)+0.5), 'g', -1, 64))
			}
			return nil
		},
		// The replaced sumReduce, verbatim.
		Reduce: func(key string, values []string, emit func(k, v string)) error {
			s := 0.0
			for _, v := range values {
				f, err := strconv.ParseFloat(v, 64)
				if err != nil {
					return err
				}
				s += f
			}
			emit(key, strconv.FormatFloat(s, 'g', -1, 64))
			return nil
		},
	}
	return job, ref
}

func mustRun(tb testing.TB, run func() ([][]string, error)) [][]string {
	tb.Helper()
	out, err := run()
	if err != nil {
		tb.Fatal(err)
	}
	return out
}

// TestShuffleAllocFloor bounds the runtime's allocations per shuffled record:
// records live in per-run arenas, not on the heap (the replaced runtime made
// about five allocations per record).
func TestShuffleAllocFloor(t *testing.T) {
	job, _ := shuffleJobs()
	ctx := context.Background()
	allocs := testing.AllocsPerRun(2, func() {
		mustRun(t, func() ([][]string, error) { return Run(ctx, job, nil) })
	})
	const records = shuffleMappers * shuffleKeys
	t.Logf("%.0f allocations for %d shuffled records", allocs, records)
	if allocs > records/50 {
		t.Fatalf("%.0f allocations for %d records: more than 1 per 50", allocs, records)
	}
}

// TestShufflePerfFloor asserts Run stays 2.5× ahead of the runtime it
// replaced on the sum job — after checking the two agree line for line, so a
// floor failure is never a masked correctness failure. Gated like the kernel
// floors: wall-clock ratios only mean something on an idle host.
func TestShufflePerfFloor(t *testing.T) {
	if os.Getenv("GENBASE_PERF_FLOOR") == "" {
		t.Skip("set GENBASE_PERF_FLOOR=1 to run the wall-clock shuffle floor")
	}
	job, ref := shuffleJobs()
	ctx := context.Background()
	runNew := func() ([][]string, error) { return Run(ctx, job, nil) }
	runRef := func() ([][]string, error) { return refRun(ctx, ref, nil) }
	got, want := mustRun(t, runNew), mustRun(t, runRef)
	for p := range want {
		if !slices.Equal(got[p], want[p]) {
			t.Fatalf("reducer %d output differs from the reference", p)
		}
	}
	refBest, newBest := time.Duration(1<<62), time.Duration(1<<62)
	for r := 0; r < 3; r++ {
		t0 := time.Now()
		mustRun(t, runRef)
		t1 := time.Now()
		mustRun(t, runNew)
		t2 := time.Now()
		refBest, newBest = min(refBest, t1.Sub(t0)), min(newBest, t2.Sub(t1))
	}
	ratio := float64(refBest) / float64(newBest)
	t.Logf("reference %v, run %v (%.2fx)", refBest, newBest, ratio)
	if ratio < 2.5 {
		t.Fatalf("shuffle perf floor broken: %.2fx over the reference, want >= 2.5x", ratio)
	}
}

// covarianceInput is an n×k normal matrix as Mahout row files over splits.
func covarianceInput(n, k, splits int) [][]string {
	rng := rand.New(rand.NewSource(int64(n*k + splits)))
	x := linalg.NewMatrix(n, k)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	return matrixLines(x, splits)
}

func totalBytes(traffic [][]int64) (sum int64) {
	for _, row := range traffic {
		for _, b := range row {
			sum += b
		}
	}
	return sum
}

// TestCovarianceShufflesGramRows counts what the covariance query's gram job
// shuffles: one record per gram row per mapper, s·k on an n×k input over s
// splits (the element-keyed layout shuffled s·k(k+1)/2), in at most 0.55×
// the element-keyed layout's ShuffleCost bytes.
func TestCovarianceShufflesGramRows(t *testing.T) {
	const n, k, splits = 60, 40, 8
	ctx := context.Background()
	sched := &recordingSched{LocalScheduler: LocalScheduler{Workers: 2}}
	e := &Engine{Splits: splits, Sched: sched}
	matrix := covarianceInput(n, k, splits)
	means, err := e.colMeansJob(ctx, matrix, k, n)
	noErr(t, err)
	job := e.centeredGram(ctx, matrix, k, means)
	var shuffled atomic.Int64
	reduce := job.Reduce
	job.Reduce = func(key []byte, values [][]byte, out *Emitter) error {
		shuffled.Add(int64(len(values)))
		return reduce(key, values, out)
	}
	_, err = Run(ctx, job, sched)
	noErr(t, err)
	rowBytes := totalBytes(sched.traffic)
	_, err = e.refCenteredGramJob(ctx, matrix, k, means)
	noErr(t, err)
	refBytes := totalBytes(sched.traffic)
	t.Logf("%d records in %d bytes; the element-keyed layout shuffles %d records in %d bytes",
		shuffled.Load(), rowBytes, splits*k*(k+1)/2, refBytes)
	if got := shuffled.Load(); got != splits*k {
		t.Fatalf("shuffled %d gram records, want splits·k = %d", got, splits*k)
	}
	if float64(rowBytes) > 0.55*float64(refBytes) {
		t.Fatalf("shuffled %d bytes, more than 0.55× the element-keyed layout's %d", rowBytes, refBytes)
	}
}

// TestHadoopCovariancePerfFloor asserts the covariance query's two jobs —
// column means, then the centered gram — run 1.25× faster in the row layout
// than in the element-keyed layout they replaced, at the medium preset's 750
// genes, after checking both give the same bits. Gated like the other
// wall-clock floors.
func TestHadoopCovariancePerfFloor(t *testing.T) {
	if os.Getenv("GENBASE_PERF_FLOOR") == "" {
		t.Skip("set GENBASE_PERF_FLOOR=1 to run the wall-clock covariance floor")
	}
	const n, k = 64, 750
	ctx := context.Background()
	e := &Engine{Sched: LocalScheduler{}}
	matrix := covarianceInput(n, k, e.splits())
	runNew := func() (*linalg.Matrix, error) {
		means, err := e.colMeansJob(ctx, matrix, k, n)
		if err != nil {
			return nil, err
		}
		return e.centeredGramJob(ctx, matrix, k, means)
	}
	runRef := func() (*linalg.Matrix, error) {
		means, err := e.refColMeansJob(ctx, matrix, k, n)
		if err != nil {
			return nil, err
		}
		return e.refCenteredGramJob(ctx, matrix, k, means)
	}
	got, err := runNew()
	want, refErr := runRef()
	noErr(t, err, refErr)
	sameBits(t, "centered gram", got.Data, want.Data)
	refBest, newBest := time.Duration(1<<62), time.Duration(1<<62)
	for r := 0; r < 3; r++ {
		t0 := time.Now()
		_, refErr = runRef()
		t1 := time.Now()
		_, err = runNew()
		t2 := time.Now()
		noErr(t, err, refErr)
		refBest, newBest = min(refBest, t1.Sub(t0)), min(newBest, t2.Sub(t1))
	}
	ratio := float64(refBest) / float64(newBest)
	t.Logf("element-keyed %v, row layout %v (%.2fx)", refBest, newBest, ratio)
	if ratio < 1.25 {
		t.Fatalf("covariance perf floor broken: %.2fx over the element-keyed layout, want >= 1.25x", ratio)
	}
}

func BenchmarkMRShuffle(b *testing.B) {
	job, ref := shuffleJobs()
	ctx := context.Background()
	b.Run("run", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			mustRun(b, func() ([][]string, error) { return Run(ctx, job, nil) })
		}
	})
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			mustRun(b, func() ([][]string, error) { return refRun(ctx, ref, nil) })
		}
	})
}

// BenchmarkHadoopCovarianceSelective is the cell that dominates the repo
// benchmark's selective-medium workload: Hadoop's covariance query at the
// medium preset with that workload's narrow predicates.
func BenchmarkHadoopCovarianceSelective(b *testing.B) {
	ds, err := datagen.Generate(datagen.Config{Size: datagen.Medium, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	h := New()
	if err := h.Load(ds); err != nil {
		b.Fatal(err)
	}
	p := engine.DefaultParams() // benchmark/workloads.go selectiveParams
	p.FunctionThreshold, p.MaxAge, p.SampleFrac, p.MaxBiclusters, p.SVDK = 25, 22, 0.01, 1, 3
	ctx := context.Background()
	b.ReportAllocs()
	for b.Loop() {
		if _, err := h.Run(ctx, engine.Q2Covariance, p); err != nil {
			b.Fatal(err)
		}
	}
}
