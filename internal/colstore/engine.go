package colstore

import (
	"context"
	"fmt"

	"github.com/genbase/genbase/internal/analytics"
	"github.com/genbase/genbase/internal/bicluster"
	"github.com/genbase/genbase/internal/datagen"
	"github.com/genbase/genbase/internal/engine"
	"github.com/genbase/genbase/internal/linalg"
	"github.com/genbase/genbase/internal/plan"
)

// Mode selects how analytics are invoked.
type Mode int

// The paper's configurations 4 and 5.
const (
	// ModeR exports to an external R process through a text COPY stream.
	ModeR Mode = iota
	// ModeUDF calls R as in-database user-defined functions: a zero-copy
	// in-process hand-off — except the biclustering UDF, whose interface
	// re-serializes the matrix through the text path for every extracted
	// bicluster (the paper: "there seem to be some issues with this
	// interface ... such as the biclustering query, in which the column
	// store + UDFs configuration performs significantly worse").
	ModeUDF
)

// Engine is the column-store system under test.
type Engine struct {
	// Workers is the analytics-kernel worker count (0 = the GENBASE_PARALLEL
	// / NumCPU default). Answers are bitwise identical at any value.
	Workers int

	mode Mode

	pats  *Table
	genes *Table
	goTab *Table

	numPatients, numGenes, numTerms int

	// vals is the microarray's value column, stored patient-major dense, so
	// it IS the expression matrix in row-major layout (DESIGN.md §10); it is
	// the only microarray column a plan reads. meta caches the decoded
	// gene-function column the Q2 summary joins against.
	vals []float64
	meta engine.GeneMeta // funcLookup over the decoded function column, boxed once at Load

	text analytics.Glue
}

// New creates a column-store engine.
func New(mode Mode) *Engine {
	return &Engine{mode: mode, text: analytics.TextGlue{}}
}

// Name implements engine.Engine.
func (e *Engine) Name() string {
	if e.mode == ModeUDF {
		return "colstore-udf"
	}
	return "colstore-r"
}

// Supports implements engine.Engine, derived from the registered physical
// operators (plan.Physical): both column-store configurations implement the
// full operator vocabulary.
func (e *Engine) Supports(q engine.QueryID) bool { return plan.Supports(e.Capabilities(), q) }

// SetWorkers pins the analytics-kernel worker count (serve.Server uses it to
// split the host's worker budget across admission slots). Call before
// concurrent queries begin.
func (e *Engine) SetWorkers(n int) { e.Workers = n }

// Close implements engine.Engine: the engine returns to its not-loaded
// state.
func (e *Engine) Close() error {
	e.pats, e.genes, e.goTab, e.vals, e.meta = nil, nil, nil, nil, nil
	return nil
}

// Load implements engine.Engine: metadata columns are built once,
// compressed, and the microarray is stored as its value column alone.
func (e *Engine) Load(ds *datagen.Dataset) error {
	p, g := ds.Dims.Patients, ds.Dims.Genes
	// Row pi of the expression matrix is vals[pi*g : (pi+1)*g], which the
	// pivot and the Q5 sample read directly.
	e.vals = make([]float64, p*g)
	for pi := 0; pi < p; pi++ {
		copy(e.vals[pi*g:(pi+1)*g], ds.Expression.Row(pi))
	}

	ids := make([]int64, p)
	ages := make([]int64, p)
	genders := make([]int64, p)
	diseases := make([]int64, p)
	resp := make([]float64, p)
	for i, pt := range ds.Patients {
		ids[i] = int64(pt.ID)
		ages[i] = int64(pt.Age)
		genders[i] = int64(pt.Gender) // 2 distinct values → dict
		diseases[i] = int64(pt.DiseaseID)
		resp[i] = pt.DrugResponse
	}
	e.pats = NewTable("patients", p).AddInt("patientid", ids).AddInt("age", ages).
		AddInt("gender", genders).AddInt("diseaseid", diseases).AddFloat("drugresponse", resp)

	gids := make([]int64, g)
	fns := make([]int64, g)
	for i, gn := range ds.Genes {
		gids[i] = int64(gn.ID)
		fns[i] = int64(gn.Function)
	}
	e.genes = NewTable("genes", g).AddInt("geneid", gids).AddInt("function", fns)

	var goGene, goTerm []int64
	for gi := 0; gi < g; gi++ {
		for t := 0; t < ds.Dims.GOTerms; t++ {
			if ds.GOAt(gi, t) == 1 {
				goGene = append(goGene, int64(gi))
				goTerm = append(goTerm, int64(t))
			}
		}
	}
	e.goTab = NewTable("go", len(goGene)).AddInt("geneid", goGene).AddInt("goid", goTerm)
	e.meta = funcLookup{fns}

	e.numPatients, e.numGenes, e.numTerms = p, g, ds.Dims.GOTerms
	return nil
}

// Run implements engine.Engine: compile the query into the shared operator
// IR and execute it against this engine's physical operators (ops.go).
func (e *Engine) Run(ctx context.Context, q engine.QueryID, p engine.Params) (*engine.Result, error) {
	if e.vals == nil {
		return nil, fmt.Errorf("colstore: not loaded")
	}
	pl, err := plan.Compile(q, p)
	if err != nil {
		return nil, err
	}
	return plan.Execute(ctx, e, pl)
}

// glue returns the boundary used for ordinary analytics calls. The text
// COPY stream is the "+ R" configuration's defining cost and is never
// bypassed; the in-process UDF hand-off is zero-copy (the kernels never
// mutate their operands).
func (e *Engine) glue() analytics.Glue {
	if e.mode == ModeUDF {
		return analytics.ZeroCopyGlue{}
	}
	return e.text
}

type funcLookup struct{ fns []int64 }

func (f funcLookup) FunctionOf(g int) int64 { return f.fns[g] }

// biclusterViaUDF drives the Cheng–Church loop through the UDF interface:
// the engine masks found biclusters and re-invokes the UDF, and each
// invocation re-serializes the working matrix through the text boundary.
// Numerically identical to bicluster.Run with the same options.
func (e *Engine) biclusterViaUDF(ctx context.Context, sw *engine.StopWatch, x *linalg.Matrix, maxB int, seed uint64) ([]bicluster.Bicluster, error) {
	opts := bicluster.Options{MaxBiclusters: maxB, Seed: seed}.WithDefaults(x)
	masker := bicluster.NewMasker(x, opts.Seed)
	work := x.Clone()
	var blocks []bicluster.Bicluster
	for b := 0; b < opts.MaxBiclusters; b++ {
		sw.StartTransfer()
		udfInput, err := e.text.TransferMatrix(ctx, work)
		if err != nil {
			return nil, err
		}
		sw.StartAnalytics()
		bc, err := bicluster.FindOneCtx(ctx, udfInput, opts)
		// The UDF's copy dies with the invocation: FindOneCtx returns fresh
		// index slices and keeps no reference to its input.
		linalg.PutMatrix(udfInput)
		if err != nil {
			return nil, err
		}
		if bc == nil {
			break
		}
		bc.MSR = bicluster.MSROf(x, bc.Rows, bc.Cols)
		blocks = append(blocks, *bc)
		if len(bc.Rows) == 0 || len(bc.Cols) == 0 {
			break
		}
		masker.Mask(work, bc)
	}
	if len(blocks) == 0 {
		return nil, fmt.Errorf("colstore: no bicluster met the delta threshold")
	}
	return blocks, nil
}
