package mapreduce

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"strconv"
	"strings"

	"github.com/genbase/genbase/internal/bicluster"
	"github.com/genbase/genbase/internal/engine"
	"github.com/genbase/genbase/internal/linalg"
	"github.com/genbase/genbase/internal/plan"
)

// Hadoop's physical operators (plan.Physical): data management runs as
// Hive-style MR jobs over the text tables, the pivot as a broadcast map-side
// join reduced into dense row lines, and the analytics kernels as
// Mahout-style MR job chains — no BLAS anywhere, with every intermediate
// matrix materialized back to text between jobs.

// tableFields maps IR column names to comma-separated field positions of
// the text tables (the Hive external-table schemas).
var tableFields = map[string]map[string]int{
	plan.TableGenes: {
		"geneid": 0, "target": 1, "position": 2, "length": 3, plan.ColFunction: 4,
	},
	plan.TablePatients: {
		"patientid": 0, plan.ColAge: 1, plan.ColGender: 2, "zipcode": 3,
		plan.ColDiseaseID: 4, plan.ColDrugResponse: 5,
	},
}

// Capabilities implements plan.Physical. Biclustering is not registered
// ("Hadoop and Postgres + Madlib do not provide sufficient analytics
// functions to run the biclustering query").
func (e *Engine) Capabilities() plan.OpSet {
	return plan.AllOps().Without(plan.OpKernelBicluster)
}

// Dims implements plan.Physical.
func (e *Engine) Dims() (int, int) { return e.numPats, e.numGenes }

// SelectIDs implements plan.Physical: a map-only filter job over the text
// table, reduced to the surviving ids.
func (e *Engine) SelectIDs(ctx context.Context, table string, preds []plan.Pred) ([]int64, error) {
	schema, ok := tableFields[table]
	if !ok {
		return nil, fmt.Errorf("mapreduce: no text table %q", table)
	}
	var lines []string
	switch table {
	case plan.TableGenes:
		lines = e.genes
	case plan.TablePatients:
		lines = e.patients
	}
	cols := make([]int, len(preds))
	for i, p := range preds {
		c, ok := schema[p.Col]
		if !ok {
			return nil, fmt.Errorf("mapreduce: table %s has no column %q", table, p.Col)
		}
		cols[i] = c
	}
	job := &Job{
		Name:  "hive-filter-" + table,
		Input: SplitLines(lines, e.splits()),
		Map: func(line string, out *Emitter) error {
			var fbuf [6]string
			f := fbuf[:len(schema)]
			if err := fields(line, ',', f); err != nil {
				return malformed(line, err)
			}
			for i, p := range preds {
				v, err := strconv.ParseInt(f[cols[i]], 10, 64)
				if err != nil {
					return malformed(line, err)
				}
				if !p.Eval(v) {
					return nil
				}
			}
			var kbuf [32]byte
			out.Emit(appendPad(kbuf[:0], f[0]), []byte("1"))
			return nil
		},
		Reduce: func(key []byte, _ [][]byte, out *Emitter) error {
			out.Emit(key, []byte("1"))
			return nil
		},
	}
	out, err := Run(ctx, job, e.Sched)
	if err != nil {
		return nil, err
	}
	return collectIDs(out)
}

// ScanFloats implements plan.Physical by parsing the patients text table.
func (e *Engine) ScanFloats(_ context.Context, table, col string, ids []int64) ([]float64, error) {
	if table != plan.TablePatients || col != plan.ColDrugResponse {
		return nil, fmt.Errorf("mapreduce: no physical scan for %s.%s", table, col)
	}
	if ids == nil {
		ids = allIDs(e.numPats)
	}
	pos := denseIndex(ids, e.numPats)
	y := make([]float64, len(ids))
	var f [6]string
	for _, line := range e.patients {
		if err := fields(line, ',', f[:]); err != nil {
			return nil, malformed(line, err)
		}
		id, err := parseIndex(f[0], e.numPats)
		if err != nil {
			return nil, malformed(line, err)
		}
		if i := pos[id]; i >= 0 {
			if y[i], err = strconv.ParseFloat(f[5], 64); err != nil {
				return nil, malformed(line, err)
			}
		}
	}
	return y, nil
}

// Pivot implements plan.Physical via the broadcast join + restructure job.
func (e *Engine) Pivot(ctx context.Context, patientIDs, geneIDs []int64) (*linalg.Matrix, error) {
	if geneIDs == nil {
		geneIDs = allIDs(e.numGenes)
	}
	return e.joinPivotJob(ctx, geneIDs, patientIDs)
}

// SampleMeans implements plan.Physical: filter + aggregate with combiners
// over the microarray text files.
func (e *Engine) SampleMeans(ctx context.Context, step int) ([]float64, int, error) {
	step64 := int64(step)
	job := &Job{
		Name:        "hive-sample-means",
		Input:       e.micro,
		NumReducers: e.splits(),
		Map: func(line string, out *Emitter) error {
			var f [3]string // gene, patient, value
			if err := fields(line, ',', f[:]); err != nil {
				return malformed(line, err)
			}
			pid, err := strconv.ParseInt(f[1], 10, 64)
			if err != nil {
				return malformed(line, err)
			}
			if pid%step64 != 0 {
				return nil
			}
			var kbuf, vbuf [32]byte
			out.Emit(appendPad(kbuf[:0], f[0]), append(append(vbuf[:0], f[2]...), ":1"...))
			return nil
		},
		Combine: sumCountReduce,
		Reduce:  sumCountReduce,
	}
	out, err := Run(ctx, job, e.Sched)
	if err != nil {
		return nil, 0, err
	}
	means := make([]float64, e.numGenes)
	err = records(out, func(key, value string) error {
		g, err := parseIndex(key, len(means))
		if err != nil {
			return err
		}
		var f [2]string // sum, count
		if err := fields(value, ':', f[:]); err != nil {
			return err
		}
		sum, err := strconv.ParseFloat(f[0], 64)
		if err != nil {
			return err
		}
		cnt, err := strconv.ParseFloat(f[1], 64)
		means[g] = sum / cnt
		return err
	})
	if err != nil {
		return nil, 0, err
	}
	sampled := 0
	for pid := int64(0); pid < int64(e.numPats); pid += step64 {
		sampled++
	}
	return means, sampled, nil
}

// GOMembers implements plan.Physical: GO members grouped by term with a
// reduce-side join shape.
func (e *Engine) GOMembers(ctx context.Context) ([][]int32, error) {
	goJob := &Job{
		Name:        "hive-go-members",
		Input:       e.goLines,
		NumReducers: e.splits(),
		Map: func(line string, out *Emitter) error {
			var f [3]string // gene, term, belongs
			if err := fields(line, ',', f[:]); err != nil {
				return malformed(line, err)
			}
			if f[2] != "1" {
				return nil
			}
			var kbuf, vbuf [32]byte
			out.Emit(appendPad(kbuf[:0], f[1]), append(vbuf[:0], f[0]...))
			return nil
		},
		Reduce: func(key []byte, values [][]byte, out *Emitter) error {
			out.Emit(key, bytes.Join(values, []byte(",")))
			return nil
		},
	}
	goOut, err := Run(ctx, goJob, e.Sched)
	if err != nil {
		return nil, err
	}
	members := make([][]int32, e.numTerms)
	err = records(goOut, func(key, value string) error {
		t, err := parseIndex(key, len(members))
		if err != nil {
			return err
		}
		var gs []int32
		for _, f := range strings.Split(value, ",") {
			g, err := strconv.Atoi(f)
			if err != nil {
				return err
			}
			gs = append(gs, int32(g))
		}
		sortInt32(gs)
		members[t] = gs
		return nil
	})
	return members, err
}

// GeneMeta implements plan.Physical by parsing the genes text table.
func (e *Engine) GeneMeta(_ context.Context) (engine.GeneMeta, error) {
	fns := make([]int64, e.numGenes)
	var f [5]string
	for _, line := range e.genes {
		if err := fields(line, ',', f[:]); err != nil {
			return nil, malformed(line, err)
		}
		id, err := parseIndex(f[0], len(fns))
		if err == nil {
			fns[id], err = strconv.ParseInt(f[4], 10, 64)
		}
		if err != nil {
			return nil, malformed(line, err)
		}
	}
	return mrFuncLookup{fns}, nil
}

// RunRegression implements plan.Physical: normal equations via MR over
// [1 | X] row files, solved in the driver, with R² from a residual-sum job.
func (e *Engine) RunRegression(ctx context.Context, sw *engine.StopWatch, x *linalg.Matrix, y []float64) ([]float64, float64, error) {
	sw.StartAnalytics()
	xi := linalg.AddInterceptColumn(x)
	matrix := matrixLines(xi, e.splits())
	k := xi.Cols
	gram, aty, err := e.gramJob(ctx, matrix, k, y)
	if err != nil {
		return nil, 0, err
	}
	beta, err := solveSymmetric(gram, aty)
	if err != nil {
		return nil, 0, err
	}
	ssRes, err := e.ssResJob(ctx, matrix, beta, y)
	if err != nil {
		return nil, 0, err
	}
	my := linalg.Mean(y)
	ssTot := 0.0
	for _, v := range y {
		ssTot += (v - my) * (v - my)
	}
	r2 := 0.0
	if ssTot > 0 {
		r2 = 1 - ssRes/ssTot
	}
	return beta, r2, nil
}

// RunCovariance implements plan.Physical: column means then centered-gram
// partials, each a full MR job over the text matrix.
func (e *Engine) RunCovariance(ctx context.Context, sw *engine.StopWatch, x *linalg.Matrix) (*linalg.Matrix, error) {
	sw.StartAnalytics()
	matrix := matrixLines(x, e.splits())
	means, err := e.colMeansJob(ctx, matrix, x.Cols, x.Rows)
	if err != nil {
		return nil, err
	}
	cov, err := e.centeredGramJob(ctx, matrix, x.Cols, means)
	if err != nil {
		return nil, err
	}
	cov.Scale(1 / float64(x.Rows-1))
	return cov, nil
}

// RunSVD implements plan.Physical: Lanczos with one MR job per mat-vec
// (Mahout's DistributedLanczos shape).
func (e *Engine) RunSVD(ctx context.Context, sw *engine.StopWatch, a *linalg.Matrix, k int, seed uint64) ([]float64, error) {
	sw.StartAnalytics()
	op := &mrATAOperator{ctx: ctx, e: e, matrix: matrixLines(a, e.splits()), k: a.Cols}
	eig, err := linalg.Lanczos(op, k, linalg.LanczosOptions{Reorthogonalize: true, Seed: seed})
	if op.err != nil {
		return nil, op.err
	}
	if err != nil {
		return nil, err
	}
	sv := make([]float64, len(eig.Values))
	for i, lam := range eig.Values {
		if lam < 0 {
			lam = 0
		}
		sv[i] = math.Sqrt(lam)
	}
	return sv, nil
}

// RunBicluster is not registered (Capabilities omits the kernel); it exists
// only to satisfy plan.Physical and reports the configuration gap.
func (e *Engine) RunBicluster(context.Context, *engine.StopWatch, *linalg.Matrix, int, uint64) ([]bicluster.Bicluster, error) {
	return nil, engine.ErrUnsupported
}

// RunStats implements plan.Physical: the enrichment test runs driver-side
// over the job-computed means and members.
func (e *Engine) RunStats(ctx context.Context, sw *engine.StopWatch, means []float64, members [][]int32, sampled int) (*engine.StatsAnswer, error) {
	sw.StartAnalytics()
	return engine.EnrichmentTest(ctx, means, members, sampled)
}

// PhysicalName implements plan.Physical.
func (e *Engine) PhysicalName(k plan.OpKind) string {
	switch k {
	case plan.OpSelectPred:
		return "map-only filter job"
	case plan.OpScanTable:
		return "text-table parse"
	case plan.OpSamplePatients:
		return "patient-id modulus"
	case plan.OpPivotMicro:
		return "broadcast join + restructure job"
	case plan.OpKernelRegression, plan.OpKernelCovariance, plan.OpKernelSVD, plan.OpKernelStats:
		return "Mahout-style MR job chain"
	case plan.OpKernelBicluster:
		return "unsupported"
	case plan.OpTopKByAbs:
		return "shared covariance summary"
	case plan.OpEmit:
		return "answer assembly"
	default:
		return "unsupported"
	}
}
