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
	// ModeUDF calls R as in-database user-defined functions: a cheap binary
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

	micro *Table // geneid, patientid, value — narrow, patient-major
	pats  *Table
	genes *Table
	goTab *Table

	numPatients, numGenes, numTerms int

	// Zero-copy path state (DESIGN.md §10): Load stores the microarray
	// value column patient-major dense, so vals IS the expression matrix in
	// row-major layout. denseVals records that invariant; fns caches the
	// decoded gene-function column the Q2 summary joins against.
	vals      []float64
	denseVals bool
	meta      engine.GeneMeta // funcLookup over the decoded function column, boxed once at Load

	text analytics.Glue
	bin  analytics.Glue
}

// New creates a column-store engine.
func New(mode Mode) *Engine {
	return &Engine{mode: mode, text: analytics.TextGlue{}, bin: analytics.BinaryGlue{}}
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

// Close implements engine.Engine.
func (e *Engine) Close() error { return nil }

// Load implements engine.Engine: columns are built once, compressed.
func (e *Engine) Load(ds *datagen.Dataset) error {
	p, g := ds.Dims.Patients, ds.Dims.Genes
	n := p * g
	geneCol := make([]int64, n)
	patCol := make([]int64, n)
	valCol := make([]float64, n)
	k := 0
	for pi := 0; pi < p; pi++ {
		row := ds.Expression.Row(pi)
		for gi, v := range row {
			geneCol[k] = int64(gi)
			patCol[k] = int64(pi) // sorted → RLE compresses to p runs
			valCol[k] = v
			k++
		}
	}
	e.micro = NewTable("microarray", n).AddInt("geneid", geneCol).AddInt("patientid", patCol).AddFloat("value", valCol)
	// The loop above wrote valCol patient-major dense: row pi of the
	// expression matrix is valCol[pi*g : (pi+1)*g]. The zero-copy pivot
	// exploits this; the compressed columns stay authoritative for the
	// general (slow) path.
	e.vals = valCol
	e.denseVals = true

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
	if e.micro == nil {
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
// bypassed; the in-process UDF hand-off becomes a true zero-copy hand-off
// when the knob is on (the kernels never mutate their operands).
func (e *Engine) glue() analytics.Glue {
	if e.mode == ModeUDF {
		if engine.ZeroCopyEnabled() {
			return analytics.ZeroCopyGlue{}
		}
		return e.bin
	}
	return e.text
}

// pivotMicro builds the dense matrix for the given patient and gene id sets
// (nil means all) using selection vectors over the compressed microarray
// columns — the column store's late-materialization path.
func (e *Engine) pivotMicro(ctx context.Context, patientIDs, geneIDs []int64) (*linalg.Matrix, error) {
	if err := engine.CheckCtx(ctx); err != nil {
		return nil, err
	}
	if e.denseVals && engine.ZeroCopyEnabled() {
		// Zero-copy pivot over the patient-major dense value column:
		// identity selections are views, subsets are pooled gathers.
		return engine.PivotDense(ctx, e.vals, e.numPatients, e.numGenes, patientIDs, geneIDs)
	}
	if patientIDs == nil {
		patientIDs = identityIDs(e.numPatients)
	}
	if geneIDs == nil {
		geneIDs = identityIDs(e.numGenes)
	}
	patIdx := make([]int32, e.numPatients)
	for i := range patIdx {
		patIdx[i] = -1
	}
	for i, id := range patientIDs {
		patIdx[id] = int32(i)
	}
	geneIdx := make([]int32, e.numGenes)
	for i := range geneIdx {
		geneIdx[i] = -1
	}
	for i, id := range geneIDs {
		geneIdx[id] = int32(i)
	}

	// Selection on the RLE patientid column: whole patient runs accepted or
	// rejected at run granularity.
	sel := e.micro.Int("patientid").Select(func(v int64) bool { return patIdx[v] >= 0 }, nil)
	if len(geneIDs) < e.numGenes {
		gc := e.micro.Int("geneid")
		sel = gc.SelectRefine(func(v int64) bool { return geneIdx[v] >= 0 }, sel)
	}
	if err := engine.CheckCtx(ctx); err != nil {
		return nil, err
	}

	m := linalg.NewMatrix(len(patientIDs), len(geneIDs))
	gc := e.micro.Int("geneid")
	pc := e.micro.Int("patientid")
	vals := e.micro.Float("value")
	for _, i := range sel {
		pi := patIdx[pc.At(int(i))]
		gi := geneIdx[gc.At(int(i))]
		m.Set(int(pi), int(gi), vals[i])
	}
	return m, nil
}

func identityIDs(n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i)
	}
	return out
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
