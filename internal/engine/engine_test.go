package engine

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"github.com/genbase/genbase/internal/linalg"
	"github.com/genbase/genbase/internal/stats"
)

func TestQueryIDStrings(t *testing.T) {
	want := map[QueryID]string{
		Q1Regression:   "regression",
		Q2Covariance:   "covariance",
		Q3Biclustering: "biclustering",
		Q4SVD:          "svd",
		Q5Statistics:   "statistics",
	}
	for q, s := range want {
		if q.String() != s {
			t.Fatalf("%d → %s", q, q.String())
		}
	}
	if len(AllQueries()) != 5 {
		t.Fatal("five queries")
	}
}

func TestDefaultParamsMatchPaperExamples(t *testing.T) {
	p := DefaultParams()
	if p.FunctionThreshold != 250 {
		t.Fatal("paper example is function < 250")
	}
	if p.Gender != 'M' || p.MaxAge != 40 {
		t.Fatal("paper example is male patients under 40")
	}
	if p.CovarianceTopFrac != 0.10 {
		t.Fatal("paper example keeps the top 10%")
	}
}

func TestSamplePatientStep(t *testing.T) {
	p := Params{SampleFrac: 0.025}
	if p.SamplePatientStep() != 40 {
		t.Fatalf("step=%d", p.SamplePatientStep())
	}
	if (Params{SampleFrac: 0}).SamplePatientStep() != 1 {
		t.Fatal("degenerate fraction")
	}
	if (Params{SampleFrac: 2}).SamplePatientStep() != 1 {
		t.Fatal("fraction above 1")
	}
}

func TestStopWatchPhases(t *testing.T) {
	var sw StopWatch
	sw.StartDM()
	time.Sleep(2 * time.Millisecond)
	sw.StartAnalytics()
	time.Sleep(2 * time.Millisecond)
	sw.StartTransfer()
	time.Sleep(2 * time.Millisecond)
	sw.Stop()
	tm := sw.Timing()
	if tm.DataManagement <= 0 || tm.Analytics <= 0 || tm.Transfer <= 0 {
		t.Fatalf("phases not recorded: %+v", tm)
	}
	if tm.Total() < 6*time.Millisecond {
		t.Fatalf("total %v too small", tm.Total())
	}
}

func TestStopWatchAddExternal(t *testing.T) {
	var sw StopWatch
	sw.AddExternal(Timing{Analytics: time.Second, Transfer: time.Millisecond})
	tm := sw.Timing()
	if tm.Analytics != time.Second || tm.Transfer != time.Millisecond {
		t.Fatalf("external not added: %+v", tm)
	}
}

func TestTimingAddTotal(t *testing.T) {
	a := Timing{DataManagement: 1, Analytics: 2, Transfer: 3}
	a.Add(Timing{DataManagement: 10, Analytics: 20, Transfer: 30})
	if a.Total() != 66 {
		t.Fatalf("total=%v", a.Total())
	}
}

func TestCheckCtx(t *testing.T) {
	if CheckCtx(context.Background()) != nil {
		t.Fatal("live context should pass")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if CheckCtx(ctx) == nil {
		t.Fatal("cancelled context should fail")
	}
}

type sliceMeta []int64

func (s sliceMeta) FunctionOf(g int) int64 { return s[g] }

func TestSummarizeCovarianceTopFraction(t *testing.T) {
	// 4 genes → 6 pairs; crafted covariance values.
	cov := linalg.NewMatrix(4, 4)
	vals := map[[2]int]float64{
		{0, 1}: 0.9, {0, 2}: -0.8, {0, 3}: 0.1,
		{1, 2}: 0.2, {1, 3}: 0.3, {2, 3}: 0.05,
	}
	for k, v := range vals {
		cov.Set(k[0], k[1], v)
		cov.Set(k[1], k[0], v)
	}
	meta := sliceMeta{10, 20, 30, 40}
	ans := SummarizeCovariance(cov, 1.0/3.0, meta, 9)
	if ans.NumPairs != 2 {
		t.Fatalf("top third of 6 pairs = 2, got %d", ans.NumPairs)
	}
	if ans.TopPairs[0].GeneA != 0 || ans.TopPairs[0].GeneB != 1 {
		t.Fatalf("strongest pair wrong: %+v", ans.TopPairs[0])
	}
	if ans.TopPairs[1].Cov != -0.8 {
		t.Fatalf("second pair should be the negative one: %+v", ans.TopPairs[1])
	}
	if ans.TopPairs[0].FunctionA != 10 || ans.TopPairs[0].FunctionB != 20 {
		t.Fatal("metadata join wrong")
	}
	if ans.NumPatients != 9 {
		t.Fatal("patient count not carried")
	}
}

func TestSummarizeCovarianceKeepsAtLeastOne(t *testing.T) {
	cov := linalg.Identity(3)
	cov.Set(0, 1, 0.5)
	cov.Set(1, 0, 0.5)
	ans := SummarizeCovariance(cov, 1e-9, sliceMeta{1, 2, 3}, 2)
	if ans.NumPairs < 1 {
		t.Fatal("must keep at least one pair")
	}
}

func TestEnrichmentTestBasic(t *testing.T) {
	// Genes 8,9 have the highest means and form term 0; term 1 is random.
	means := []float64{1, 2, 3, 4, 5, 6, 7, 8, 100, 101}
	members := [][]int32{{8, 9}, {0, 9}}
	ans, err := EnrichmentTest(context.Background(), means, members, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Terms) != 2 {
		t.Fatalf("terms=%d", len(ans.Terms))
	}
	if ans.Terms[0].Z <= 0 {
		t.Fatalf("enriched term should have positive z, got %v", ans.Terms[0].Z)
	}
	if math.Abs(ans.Terms[0].Z) <= math.Abs(ans.Terms[1].Z) {
		t.Fatal("planted term should outrank the mixed one")
	}
	top := ans.TopEnriched(1)
	if top[0].Term != 0 {
		t.Fatalf("top term %d", top[0].Term)
	}
}

// Terms run across the pool with results written by term index: the answer
// must not depend on the worker count, and a failing term must surface as
// the same (lowest) one at every count.
func TestEnrichmentTestPWorkerInvariant(t *testing.T) {
	const genes, terms = 120, 45
	means := make([]float64, genes)
	for j := range means {
		means[j] = float64((j*37)%11) / 3 // ties
	}
	members := make([][]int32, terms)
	for tm := range members {
		for g := tm % 7; g < genes; g += 3 + tm%5 {
			members[tm] = append(members[tm], int32(g))
		}
	}
	want, err := EnrichmentTestP(context.Background(), means, members, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	for w := 2; w <= 8; w++ {
		got, err := EnrichmentTestP(context.Background(), means, members, 4, w)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want.Terms {
			g, r := got.Terms[i], want.Terms[i]
			if g.Term != r.Term || math.Float64bits(g.Z) != math.Float64bits(r.Z) || math.Float64bits(g.P) != math.Float64bits(r.P) {
				t.Fatalf("workers=%d term %d: %+v vs %+v", w, i, g, r)
			}
		}
	}
	members[31], members[9] = nil, nil
	for w := 1; w <= 8; w++ {
		_, err := EnrichmentTestP(context.Background(), means, members, 4, w)
		if !errors.Is(err, stats.ErrEmptyGroup) || !strings.Contains(err.Error(), "term 9:") {
			t.Fatalf("workers=%d: error %v, want term 9's ErrEmptyGroup", w, err)
		}
	}
}
