package engine

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/genbase/genbase/internal/bicluster"
	"github.com/genbase/genbase/internal/linalg"
	"github.com/genbase/genbase/internal/parallel"
	"github.com/genbase/genbase/internal/stats"
)

// RegressionAnswer is Q1's output: a fitted drug-response model.
type RegressionAnswer struct {
	// Coefficients[0] is the intercept; Coefficients[i+1] pairs with
	// SelectedGenes[i].
	Coefficients  []float64
	RSquared      float64
	SelectedGenes []int
	NumPatients   int
}

// GenePair is one high-covariance gene pair joined with gene metadata (Q2
// step 4).
type GenePair struct {
	GeneA, GeneB         int
	Cov                  float64
	FunctionA, FunctionB int64
}

// CovarianceAnswer is Q2's output.
type CovarianceAnswer struct {
	NumPatients int
	Threshold   float64
	NumPairs    int
	// TopPairs holds the 20 largest-|cov| pairs for validation; the full set
	// is summarized by NumPairs and AbsCovSum.
	TopPairs  []GenePair
	AbsCovSum float64
}

// BiclusterBlock is one discovered bicluster mapped back to entity ids.
type BiclusterBlock struct {
	PatientIDs []int
	GeneIDs    []int
	MSR        float64
}

// BiclusterAnswer is Q3's output.
type BiclusterAnswer struct {
	NumPatients int // patients surviving the metadata filter
	Blocks      []BiclusterBlock
}

// SVDAnswer is Q4's output.
type SVDAnswer struct {
	SelectedGenes  int
	SingularValues []float64
}

// TermStat is one GO term's enrichment result (Q5).
type TermStat struct {
	Term int
	Z    float64
	P    float64
}

// StatsAnswer is Q5's output. Terms are ordered by term id.
type StatsAnswer struct {
	SampledPatients int
	Terms           []TermStat
}

// TopEnriched returns the n most significant terms (largest |z|).
func (a *StatsAnswer) TopEnriched(n int) []TermStat {
	out := make([]TermStat, len(a.Terms))
	copy(out, a.Terms)
	sort.Slice(out, func(i, j int) bool { return math.Abs(out[i].Z) > math.Abs(out[j].Z) })
	if n < len(out) {
		out = out[:n]
	}
	return out
}

// BiclusterAnswerFromBlocks maps matrix-local bicluster indices back to
// patient ids (rows) and gene ids (columns are global ids already, since Q3
// keeps all genes). Shared by every engine that materializes the same
// filtered matrix, so Q3 answers are directly comparable.
func BiclusterAnswerFromBlocks(blocks []bicluster.Bicluster, patientIDs []int64) *BiclusterAnswer {
	ans := &BiclusterAnswer{NumPatients: len(patientIDs)}
	for _, b := range blocks {
		blk := BiclusterBlock{MSR: b.MSR}
		for _, r := range b.Rows {
			blk.PatientIDs = append(blk.PatientIDs, int(patientIDs[r]))
		}
		blk.GeneIDs = append(blk.GeneIDs, b.Cols...)
		ans.Blocks = append(ans.Blocks, blk)
	}
	return ans
}

// EnrichmentTest performs Q5 steps 3–4 as the paper specifies them: "for
// each go term g, separate the genes based on whether they belong to the GO
// term or not", then "perform the Wilcoxon test". members[t] lists the gene
// indices belonging to term t — each engine builds it through its own join
// machinery (the data-management half); this routine is the shared analytics
// half.
//
// The test deliberately re-ranks the combined population per term, exactly
// as R's wilcox.test (and the paper's per-system implementations) do. This
// O(terms × genes·log genes) cost is what makes the statistics task spend
// "almost all of the time" in analytics at scale; a shared-ranking shortcut
// would produce identical statistics at a small fraction of the cost, but
// would misrepresent the workload the benchmark measures.
func EnrichmentTest(ctx context.Context, means []float64, members [][]int32, sampled int) (*StatsAnswer, error) {
	return EnrichmentTestP(ctx, means, members, sampled, 0)
}

// EnrichmentTestP is EnrichmentTest with an explicit worker count. Terms are
// independent — each re-ranks its own split of the population — so the
// workers pull them in ascending order from one counter and write every
// result at its term's index: the answer is identical at any worker count.
// Each worker checks the context every 16 terms it takes. After the first
// failure no further term is handed out; the terms below it are all already
// taken and run to their end, so the error returned is the LOWEST failing
// term's, as in the serial loop.
func EnrichmentTestP(ctx context.Context, means []float64, members [][]int32, sampled, workers int) (*StatsAnswer, error) {
	ans := &StatsAnswer{SampledPatients: sampled}
	if len(members) == 0 {
		return ans, nil
	}
	ans.Terms = make([]TermStat, len(members))
	var (
		next    atomic.Int64
		failed  atomic.Bool
		mu      sync.Mutex
		failAt  = len(members)
		failErr error
	)
	fail := func(t int, err error) {
		mu.Lock()
		if t < failAt {
			failAt, failErr = t, err
		}
		mu.Unlock()
		failed.Store(true)
	}
	w := min(parallel.Resolve(workers), len(members))
	parallel.For(w, w, func(int) {
		inSet := make([]bool, len(means))
		in := make([]float64, 0, len(means))
		out := make([]float64, 0, len(means))
		for taken := 0; !failed.Load(); taken++ {
			t := int(next.Add(1)) - 1
			if t >= len(members) {
				return
			}
			if taken%16 == 0 {
				if err := CheckCtx(ctx); err != nil {
					fail(t, err)
					return
				}
			}
			genes := members[t]
			in, out = in[:0], out[:0]
			for _, j := range genes {
				inSet[j] = true
			}
			for j, v := range means {
				if inSet[j] {
					in = append(in, v)
				} else {
					out = append(out, v)
				}
			}
			for _, j := range genes {
				inSet[j] = false
			}
			res, err := stats.WilcoxonRankSum(in, out)
			if err != nil {
				fail(t, fmt.Errorf("engine: enrichment of term %d: %w", t, err))
				return
			}
			ans.Terms[t] = TermStat{Term: t, Z: res.Z, P: res.P}
		}
	})
	if failErr != nil {
		return nil, failErr
	}
	return ans, nil
}

// GeneMeta is the projection of gene metadata each engine needs to assemble
// Q2's final join.
type GeneMeta interface {
	FunctionOf(gene int) int64
}

// SummarizeCovariance applies Q2 steps 3–4 given a computed covariance
// matrix: it finds the |cov| threshold keeping the top fraction of distinct
// off-diagonal pairs, and joins the surviving pairs with gene metadata. The
// assembly is shared so every engine's answer is directly comparable; the
// expensive parts (computing cov, the join implementation for the metadata
// lookup) remain engine-specific.
func SummarizeCovariance(cov *linalg.Matrix, topFrac float64, meta GeneMeta, numPatients int) *CovarianceAnswer {
	n := cov.Rows
	total := n * (n - 1) / 2
	// The |cov| buffer is pooled scratch (it is O(genes²)) and the selection
	// and sorts are allocation-free, so the shared answer assembly adds almost
	// nothing to a query's allocation count.
	abs := linalg.GetSlice(total)
	k := 0
	for i := 0; i < n; i++ {
		row := cov.Row(i)
		for j := i + 1; j < n; j++ {
			abs[k] = math.Abs(row[j])
			k++
		}
	}
	keep := int(float64(total) * topFrac)
	if keep < 1 {
		keep = 1
	}
	if keep > total {
		keep = total
	}
	// One order statistic is needed, not the order: select, do not sort.
	threshold := stats.SelectKth(abs, total-keep)
	linalg.PutSlice(abs)

	ans := &CovarianceAnswer{NumPatients: numPatients, Threshold: threshold}
	type scored struct {
		i, j int
		c    float64
	}
	pruneLess := func(x, y scored) int {
		if d := math.Abs(y.c) - math.Abs(x.c); d != 0 {
			if d > 0 {
				return 1
			}
			return -1
		}
		return 0
	}
	top := make([]scored, 0, 4097)
	for i := 0; i < n; i++ {
		row := cov.Row(i)
		for j := i + 1; j < n; j++ {
			a := math.Abs(row[j])
			if a < threshold {
				continue
			}
			ans.NumPairs++
			ans.AbsCovSum += a
			top = append(top, scored{i, j, row[j]})
			if len(top) > 4096 {
				slices.SortFunc(top, pruneLess)
				top = top[:64]
			}
		}
	}
	slices.SortFunc(top, func(x, y scored) int {
		ax, ay := math.Abs(x.c), math.Abs(y.c)
		if ax != ay {
			if ax > ay {
				return -1
			}
			return 1
		}
		if x.i != y.i {
			return x.i - y.i
		}
		return x.j - y.j
	})
	if len(top) > 20 {
		top = top[:20]
	}
	ans.TopPairs = make([]GenePair, 0, len(top))
	for _, s := range top {
		ans.TopPairs = append(ans.TopPairs, GenePair{
			GeneA: s.i, GeneB: s.j, Cov: s.c,
			FunctionA: meta.FunctionOf(s.i), FunctionB: meta.FunctionOf(s.j),
		})
	}
	return ans
}

// FitLeastSquares is the shared host regression kernel body: augment x with
// an intercept column, solve by QR, and release both matrices to the arena.
// Every engine whose regression reduces to a native least-squares solve
// (R's lm, Madlib's C++ UDF, the column/array stores' in-process kernels)
// funnels through here, so the numerical idiom cannot drift apart across
// engines — the divergence risk the plan layer exists to remove. x is
// consumed.
func FitLeastSquares(x *linalg.Matrix, y []float64, workers int) ([]float64, float64, error) {
	xi := linalg.AddInterceptColumn(x)
	linalg.PutMatrix(x)
	fit, err := linalg.LeastSquaresP(xi, y, workers)
	linalg.PutMatrix(xi)
	if err != nil {
		return nil, 0, err
	}
	return fit.Coefficients, fit.RSquared, nil
}

// TopKSingularValues is the shared host SVD kernel body (Lanczos with full
// reorthogonalization over AᵀA, identical options everywhere). a is
// consumed.
func TopKSingularValues(a *linalg.Matrix, k int, seed uint64, workers int) ([]float64, error) {
	svd, err := linalg.TopKSVD(a, k, linalg.LanczosOptions{Reorthogonalize: true, Seed: seed, Workers: workers})
	linalg.PutMatrix(a)
	if err != nil {
		return nil, err
	}
	return svd.SingularValues, nil
}

// CovarianceHost is the shared host covariance kernel body. x is consumed.
// (The array store's offload configuration wraps the same kernel in its
// device model and keeps release explicit around the offload error paths.)
func CovarianceHost(x *linalg.Matrix, workers int) *linalg.Matrix {
	cov := linalg.CovarianceP(x, workers)
	linalg.PutMatrix(x)
	return cov
}
