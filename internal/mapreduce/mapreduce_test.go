package mapreduce

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"github.com/genbase/genbase/internal/datagen"
	"github.com/genbase/genbase/internal/engine"
	"github.com/genbase/genbase/internal/rengine"
)

func TestWordCount(t *testing.T) {
	input := SplitLines([]string{"a b a", "b c", "a"}, 2)
	job := &Job{
		Name:  "wordcount",
		Input: input,
		Map: func(line string, out *Emitter) error {
			for _, w := range strings.Fields(line) {
				out.Emit([]byte(w), []byte("1"))
			}
			return nil
		},
		Combine:     sumReduce,
		Reduce:      sumReduce,
		NumReducers: 3,
	}
	out, err := Run(context.Background(), job, nil)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]string{}
	for _, part := range out {
		for _, line := range part {
			kv := strings.SplitN(line, "\t", 2)
			counts[kv[0]] = kv[1]
		}
	}
	if counts["a"] != "3" || counts["b"] != "2" || counts["c"] != "1" {
		t.Fatalf("counts=%v", counts)
	}
}

// Property: every mapped record reaches exactly one reducer, and reducers
// see all values for their key.
func TestShuffleExactlyOnce(t *testing.T) {
	f := func(n uint8, reducers uint8) bool {
		lines := make([]string, int(n)+1)
		for i := range lines {
			lines[i] = strconv.Itoa(i % 7)
		}
		job := &Job{
			Name:  "identity",
			Input: SplitLines(lines, 3),
			Map: func(line string, out *Emitter) error {
				out.Emit([]byte(line), []byte("x"))
				return nil
			},
			Reduce: func(key []byte, values [][]byte, out *Emitter) error {
				out.Emit(key, []byte(strconv.Itoa(len(values))))
				return nil
			},
			NumReducers: int(reducers%5) + 1,
		}
		out, err := Run(context.Background(), job, nil)
		if err != nil {
			return false
		}
		total := 0
		seen := map[string]bool{}
		for _, part := range out {
			for _, line := range part {
				kv := strings.SplitN(line, "\t", 2)
				if seen[kv[0]] {
					return false // key must land in exactly one reducer
				}
				seen[kv[0]] = true
				c, _ := strconv.Atoi(kv[1])
				total += c
			}
		}
		return total == len(lines)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestReducerKeysSorted(t *testing.T) {
	lines := []string{"9", "3", "7", "1", "5"}
	job := &Job{
		Name:  "sorted",
		Input: SplitLines(lines, 2),
		Map: func(line string, out *Emitter) error {
			out.Emit([]byte(pad(line)), []byte("1"))
			return nil
		},
		Reduce: func(key []byte, values [][]byte, out *Emitter) error {
			out.Emit(key, []byte("1"))
			return nil
		},
	}
	out, err := Run(context.Background(), job, nil)
	if err != nil {
		t.Fatal(err)
	}
	keys := []string{}
	for _, line := range out[0] {
		keys = append(keys, strings.SplitN(line, "\t", 2)[0])
	}
	if !sort.StringsAreSorted(keys) {
		t.Fatalf("reducer output not key-sorted: %v", keys)
	}
}

func TestMapErrorPropagates(t *testing.T) {
	job := &Job{
		Name:  "boom",
		Input: [][]string{{"x"}},
		Map: func(string, *Emitter) error {
			return fmt.Errorf("boom")
		},
		Reduce: sumReduce,
	}
	if _, err := Run(context.Background(), job, nil); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err=%v", err)
	}
}

// A cancelled context stops the job wherever it is — before it starts, while
// mappers emit, inside the combiner's pass over a run, inside a reducer's
// merge — within ctxStride records per task, and no goroutine outlives Run.
// The "long" stages carry row-vector values of about 4 KiB, so ctxStride
// records would be 4 MiB of text: there each task must stop within ctxBytes.
func TestContextCancelStopsJob(t *testing.T) {
	const cancelAt = 100
	long := []byte(strings.Repeat("0.123456789,", 341) + "1") // a 342-float row, 4 093 bytes
	for _, tc := range []struct {
		stage string
		long  bool
	}{{"before", false}, {"map", false}, {"combine", false}, {"reduce", false},
		{"map", true}, {"combine", true}, {"reduce", true}} {
		name, nLines, value, slack := tc.stage, 100000, []byte("1"), cancelAt+2*ctxStride
		if tc.long {
			name, nLines, value, slack = "long "+tc.stage, 4096, long, cancelAt+2*(ctxBytes/len(long)+1)
		}
		lines := make([]string, nLines)
		for i := range lines {
			lines[i] = strconv.Itoa(nLines - i) // descending: every run needs its sort
		}
		t.Run(name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var calls [3]atomic.Int64 // map, combine, reduce
			hit := func(i int, name string) {
				if calls[i].Add(1) == cancelAt && tc.stage == name {
					cancel()
				}
			}
			group := func(i int, name string) func(key []byte, values [][]byte, out *Emitter) error {
				return func(key []byte, values [][]byte, out *Emitter) error {
					hit(i, name)
					out.Emit(key, values[0])
					return nil
				}
			}
			job := &Job{
				Name:  "cancel",
				Input: SplitLines(lines, 2),
				Map: func(line string, out *Emitter) error {
					hit(0, "map")
					out.Emit([]byte(pad(line)), value)
					return nil
				},
				Combine:     group(1, "combine"),
				Reduce:      group(2, "reduce"),
				NumReducers: 2,
			}
			if tc.stage == "before" {
				cancel()
			}
			if _, err := Run(ctx, job, LocalScheduler{Workers: 2}); !errors.Is(err, context.Canceled) {
				t.Fatalf("err=%v", err)
			}
			// Each of the two concurrent tasks of the cancelled wave may run
			// on until its next poll, one record or byte stride away; nothing
			// after that wave runs at all.
			m, c, r := calls[0].Load(), calls[1].Load(), calls[2].Load()
			switch tc.stage {
			case "before":
				if m+c+r != 0 {
					t.Fatalf("ran %d map, %d combine, %d reduce calls on a cancelled context", m, c, r)
				}
			case "map":
				if m > int64(slack) || c+r != 0 {
					t.Fatalf("%d map calls (want <= %d), %d combine, %d reduce after cancelling in map", m, slack, c, r)
				}
			case "combine":
				if c > int64(slack) || r != 0 {
					t.Fatalf("%d combine calls (want <= %d), %d reduce after cancelling in combine", c, slack, r)
				}
			case "reduce":
				if r > int64(slack) {
					t.Fatalf("%d reduce calls after cancelling in reduce, want <= %d", r, slack)
				}
			}
			for i := 0; runtime.NumGoroutine() > before && i < 1000; i++ {
				time.Sleep(time.Millisecond) // exiting workers are still counted for a moment
			}
			if n := runtime.NumGoroutine(); n > before {
				t.Fatalf("%d goroutines before Run, %d after", before, n)
			}
		})
	}
}

func TestSplitLines(t *testing.T) {
	s := SplitLines([]string{"a", "b", "c", "d", "e"}, 2)
	if len(s) != 2 || len(s[0]) != 3 || len(s[1]) != 2 {
		t.Fatalf("splits=%v", s)
	}
	if len(SplitLines(nil, 3)) != 1 {
		t.Fatal("empty input should give one empty split")
	}
}

// pad zero-pads a numeric string key the way the jobs' appendPad does.
func pad(s string) string { return string(appendPad(nil, s)) }

func TestPadRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 42, 99999, 1234567890} {
		got, err := parsePadded(pad(strconv.Itoa(n)))
		if err != nil || got != n {
			t.Fatalf("pad round-trip %d → %d (%v)", n, got, err)
		}
	}
	// Padded keys must sort numerically.
	if pad("9") > pad("10") {
		t.Fatal("pad does not preserve numeric order")
	}
}

// --- engine-level cross-validation against the vanilla-R oracle ---

func testDataset() *datagen.Dataset {
	return datagen.MustGenerate(datagen.Config{Size: datagen.Small, Scale: 0.3, Seed: 7})
}

func loadedPair(t *testing.T) (*Engine, *rengine.Engine) {
	t.Helper()
	h := New()
	if err := h.Load(testDataset()); err != nil {
		t.Fatal(err)
	}
	r := rengine.New()
	if err := r.Load(testDataset()); err != nil {
		t.Fatal(err)
	}
	return h, r
}

func TestHadoopLacksBiclustering(t *testing.T) {
	h, _ := loadedPair(t)
	if h.Supports(engine.Q3Biclustering) {
		t.Fatal("Hadoop must not support biclustering")
	}
	if _, err := h.Run(context.Background(), engine.Q3Biclustering, engine.DefaultParams()); !errors.Is(err, engine.ErrUnsupported) {
		t.Fatalf("err=%v", err)
	}
}

func TestRegressionMatchesReference(t *testing.T) {
	h, r := loadedPair(t)
	p := engine.DefaultParams()
	ctx := context.Background()
	want, err := r.Run(ctx, engine.Q1Regression, p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := h.Run(ctx, engine.Q1Regression, p)
	if err != nil {
		t.Fatal(err)
	}
	w := want.Answer.(*engine.RegressionAnswer)
	g := got.Answer.(*engine.RegressionAnswer)
	if len(g.SelectedGenes) != len(w.SelectedGenes) {
		t.Fatalf("selected %d vs %d", len(g.SelectedGenes), len(w.SelectedGenes))
	}
	// Normal equations vs QR: answers agree to square-root-of-machine-eps.
	if math.Abs(g.RSquared-w.RSquared) > 1e-6 {
		t.Fatalf("R² %v vs %v", g.RSquared, w.RSquared)
	}
	for i := range w.Coefficients {
		if math.Abs(g.Coefficients[i]-w.Coefficients[i]) > 1e-4*(1+math.Abs(w.Coefficients[i])) {
			t.Fatalf("coef %d: %v vs %v", i, g.Coefficients[i], w.Coefficients[i])
		}
	}
}

func TestCovarianceMatchesReference(t *testing.T) {
	h, r := loadedPair(t)
	p := engine.DefaultParams()
	ctx := context.Background()
	want, err := r.Run(ctx, engine.Q2Covariance, p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := h.Run(ctx, engine.Q2Covariance, p)
	if err != nil {
		t.Fatal(err)
	}
	w := want.Answer.(*engine.CovarianceAnswer)
	g := got.Answer.(*engine.CovarianceAnswer)
	// MR summation order differs; allow tiny threshold-boundary wiggle.
	if math.Abs(float64(g.NumPairs-w.NumPairs)) > 2 {
		t.Fatalf("pairs %d vs %d", g.NumPairs, w.NumPairs)
	}
	if math.Abs(g.AbsCovSum-w.AbsCovSum) > 1e-6*(1+w.AbsCovSum) {
		t.Fatalf("covsum %v vs %v", g.AbsCovSum, w.AbsCovSum)
	}
}

func TestSVDMatchesReference(t *testing.T) {
	h, r := loadedPair(t)
	p := engine.DefaultParams()
	p.SVDK = 5
	ctx := context.Background()
	want, err := r.Run(ctx, engine.Q4SVD, p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := h.Run(ctx, engine.Q4SVD, p)
	if err != nil {
		t.Fatal(err)
	}
	w := want.Answer.(*engine.SVDAnswer)
	g := got.Answer.(*engine.SVDAnswer)
	for i := range w.SingularValues {
		if math.Abs(g.SingularValues[i]-w.SingularValues[i]) > 1e-6*(1+w.SingularValues[0]) {
			t.Fatalf("σ[%d] %v vs %v", i, g.SingularValues[i], w.SingularValues[i])
		}
	}
}

func TestStatisticsMatchesReference(t *testing.T) {
	h, r := loadedPair(t)
	p := engine.DefaultParams()
	ctx := context.Background()
	want, err := r.Run(ctx, engine.Q5Statistics, p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := h.Run(ctx, engine.Q5Statistics, p)
	if err != nil {
		t.Fatal(err)
	}
	w := want.Answer.(*engine.StatsAnswer)
	g := got.Answer.(*engine.StatsAnswer)
	if len(g.Terms) != len(w.Terms) {
		t.Fatalf("terms %d vs %d", len(g.Terms), len(w.Terms))
	}
	for i := range w.Terms {
		if math.Abs(g.Terms[i].Z-w.Terms[i].Z) > 1e-6 {
			t.Fatalf("term %d z %v vs %v", i, g.Terms[i].Z, w.Terms[i].Z)
		}
	}
}

func TestHadoopSlowerThanReferenceOnAnalytics(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison")
	}
	h, r := loadedPair(t)
	p := engine.DefaultParams()
	p.SVDK = 5
	ctx := context.Background()
	ref, err := r.Run(ctx, engine.Q4SVD, p)
	if err != nil {
		t.Fatal(err)
	}
	had, err := h.Run(ctx, engine.Q4SVD, p)
	if err != nil {
		t.Fatal(err)
	}
	if had.Timing.Analytics <= ref.Timing.Analytics {
		t.Fatalf("hadoop analytics %v should exceed R %v", had.Timing.Analytics, ref.Timing.Analytics)
	}
}
