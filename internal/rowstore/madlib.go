package rowstore

import (
	"context"

	"github.com/genbase/genbase/internal/engine"
	"github.com/genbase/genbase/internal/linalg"
	"github.com/genbase/genbase/internal/relation"
	"github.com/genbase/genbase/internal/stats"
)

// This file implements the "Postgres + Madlib" analytics that the paper
// describes as "simulate[d] ... in SQL and plpython, rather than performing
// them natively": every Lanczos mat-vec and every Wilcoxon ranking executes
// as a relational plan through the interpreted Volcano executor. The
// numerical results are identical to the native kernels — only the execution
// path (and therefore the cost) differs, which is exactly the paper's point.

// tripleSchema is the temp-table layout for a dense matrix in SQL form.
var tripleSchema = relation.Schema{
	{Name: "row", Kind: relation.KindInt64},
	{Name: "col", Kind: relation.KindInt64},
	{Name: "val", Kind: relation.KindFloat64},
}

// tripleTable converts a dense matrix into the (row, col, val) temp table
// the simulated-SQL operators scan.
func tripleTable(a *linalg.Matrix) *relation.Table {
	t := relation.NewTable("matrix", tripleSchema)
	t.Rows = make([]relation.Row, 0, a.Rows*a.Cols)
	for i := 0; i < a.Rows; i++ {
		row := a.Row(i)
		for j, v := range row {
			t.Rows = append(t.Rows, relation.Row{
				relation.IntVal(int64(i)), relation.IntVal(int64(j)), relation.FloatVal(v),
			})
		}
	}
	return t
}

// vecTable converts a vector into a (idx, x) temp table.
func vecTable(x []float64) *relation.Table {
	t := relation.NewTable("vec", relation.Schema{
		{Name: "idx", Kind: relation.KindInt64},
		{Name: "x", Kind: relation.KindFloat64},
	})
	t.Rows = make([]relation.Row, len(x))
	for i, v := range x {
		t.Rows[i] = relation.Row{relation.IntVal(int64(i)), relation.FloatVal(v)}
	}
	return t
}

// sqlATAOperator applies x ↦ Aᵀ(A·x) with both mat-vecs expressed as
// join + aggregate plans over the matrix temp table.
type sqlATAOperator struct {
	ctx     context.Context
	triples *relation.Table
	rows    int
	cols    int
	err     error
}

// Dim implements linalg.LinearOperator.
func (o *sqlATAOperator) Dim() int { return o.cols }

// Apply implements linalg.LinearOperator. Lanczos's contract has no error
// return, so plan failures (e.g. context timeout) are latched in o.err and
// surfaced by the caller after Lanczos returns.
func (o *sqlATAOperator) Apply(x []float64) []float64 {
	if o.err != nil {
		return make([]float64, o.cols)
	}
	// y(row) = Σ val·x(col): SELECT row, SUM(val*x) FROM A JOIN xv ON col=idx GROUP BY row.
	y := make([]float64, o.rows)
	if err := o.matVecPlan(vecTable(x), 1, 0, y); err != nil {
		o.err = err
		return make([]float64, o.cols)
	}
	// z(col) = Σ val·y(row): SELECT col, SUM(val*y) FROM A JOIN yv ON row=idx GROUP BY col.
	z := make([]float64, o.cols)
	if err := o.matVecPlan(vecTable(y), 0, 1, z); err != nil {
		o.err = err
		return make([]float64, o.cols)
	}
	return z
}

// matVecPlan runs one join+aggregate mat-vec. joinCol is the triple column
// joined against the vector's idx; groupCol is the triple column grouped on.
func (o *sqlATAOperator) matVecPlan(vec *relation.Table, joinCol, groupCol int, out []float64) error {
	// Joined row layout: [row col val idx x], product appended at index 5.
	plan := &HashAgg{
		Child: &Eval{
			Child: &HashJoin{
				Build:    &MemScan{Table: vec},
				Probe:    &MemScan{Ctx: o.ctx, Table: o.triples},
				BuildKey: 0,
				ProbeKey: joinCol,
			},
			Name: "prod",
			Fn: func(r relation.Row) relation.Value {
				return relation.FloatVal(r[2].F * r[4].F)
			},
		},
		Key:  groupCol,
		Aggs: []AggSpec{{Col: 5, Kind: AggSum}},
	}
	return Drain(plan, func(r relation.Row) error {
		out[r[0].I] = r[1].F
		return nil
	})
}

// madlibSVD runs Lanczos with simulated-SQL mat-vecs and returns the top-k
// singular values of a.
func (e *Engine) madlibSVD(ctx context.Context, a *linalg.Matrix, k int, seed uint64) ([]float64, error) {
	// The mat-vecs run as relational plans (that is the configuration's
	// point), and the values need no Ritz vectors, so nothing here uses
	// the worker pool.
	op := &sqlATAOperator{ctx: ctx, triples: tripleTable(a), rows: a.Rows, cols: a.Cols}
	sv, err := linalg.SingularValues(op, k, linalg.LanczosOptions{Reorthogonalize: true, Seed: seed})
	if op.err != nil {
		return nil, op.err
	}
	return sv, err
}

// madlibWilcoxon runs Q5's enrichment as a naive SQL formulation: for every
// GO term the gene ranking is recomputed with an ORDER BY plan (a correlated
// subquery — SQL before window functions), the member ranks are joined, and
// the rank-sum test statistic evaluated. Results are identical to the native
// path; only the cost differs.
func (e *Engine) madlibWilcoxon(ctx context.Context, means []float64, members [][]int32, sampled int) (*engine.StatsAnswer, error) {
	meansTable := relation.NewTable("means", relation.Schema{
		{Name: "geneid", Kind: relation.KindInt64},
		{Name: "mean", Kind: relation.KindFloat64},
	})
	meansTable.Rows = make([]relation.Row, len(means))
	for i, v := range means {
		meansTable.Rows[i] = relation.Row{relation.IntVal(int64(i)), relation.FloatVal(v)}
	}

	ans := &engine.StatsAnswer{SampledPatients: sampled}
	ranks := make([]float64, len(means))
	for t, genes := range members {
		if err := engine.CheckCtx(ctx); err != nil {
			return nil, err
		}
		// ORDER BY mean: recomputed per term, as the correlated formulation
		// would.
		sorted := &SortOp{
			Child: &MemScan{Ctx: ctx, Table: meansTable},
			Less:  func(a, b relation.Row) bool { return a[1].F < b[1].F },
		}
		var ordered []relation.Row
		if err := Drain(sorted, func(r relation.Row) error {
			ordered = append(ordered, r.Clone())
			return nil
		}); err != nil {
			return nil, err
		}
		var ties []int
		for i := 0; i < len(ordered); {
			j := i
			for j+1 < len(ordered) && ordered[j+1][1].F == ordered[i][1].F {
				j++
			}
			mid := float64(i+j+2) / 2
			for k := i; k <= j; k++ {
				ranks[ordered[k][0].I] = mid
			}
			if j > i {
				ties = append(ties, j-i+1)
			}
			i = j + 1
		}
		// Join member genes with their ranks.
		memberTable := relation.NewTable("members", relation.Schema{{Name: "geneid", Kind: relation.KindInt64}})
		for _, g := range genes {
			memberTable.Rows = append(memberTable.Rows, relation.Row{relation.IntVal(int64(g))})
		}
		join := &HashJoin{
			Build:    &MemScan{Table: memberTable},
			Probe:    &MemScan{Ctx: ctx, Table: meansTable},
			BuildKey: 0,
			ProbeKey: 0,
		}
		var inRanks []float64
		if err := Drain(join, func(r relation.Row) error {
			inRanks = append(inRanks, ranks[r[0].I])
			return nil
		}); err != nil {
			return nil, err
		}
		res, err := stats.WilcoxonFromRanks(inRanks, len(means), ties)
		if err != nil {
			return nil, err
		}
		ans.Terms = append(ans.Terms, engine.TermStat{Term: t, Z: res.Z, P: res.P})
	}
	return ans, nil
}
