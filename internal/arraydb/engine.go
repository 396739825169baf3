package arraydb

import (
	"context"
	"fmt"
	"time"

	"github.com/genbase/genbase/internal/colpage"
	"github.com/genbase/genbase/internal/datagen"
	"github.com/genbase/genbase/internal/engine"
	"github.com/genbase/genbase/internal/plan"
	"github.com/genbase/genbase/internal/xeonphi"
)

// Engine is the SciDB configuration. With Phi set it offloads the analytics
// kernels to the Xeon Phi model (the paper's §5 experiments).
type Engine struct {
	// Workers is the analytics-kernel worker count (0 = the GENBASE_PARALLEL
	// / NumCPU default). Answers are bitwise identical at any value; with
	// Phi set it also sets the host-side kernel parallelism the device model
	// divides.
	Workers int
	// Phi books the analytics kernels at the coprocessor model's device
	// time plus PCIe transfer charges (internal/xeonphi) instead of their
	// host time.
	Phi bool

	expr *Array2D
	// 1-D attribute arrays the scans read: drug response indexed by patient
	// id, gene function indexed by gene id.
	drugResponse []float64
	function     []int64
	// The selectable attributes as encoded pages (internal/colpage), built
	// at Load: SelectIDs pushes structured predicates down to these.
	attrPages map[attrKey]*colpage.IntPage
	// GO membership in array form: belongs[gene, term].
	goArr   []uint8
	numPats int
	numGen  int
	numTerm int
}

// attrKey names an attribute array by its IR table and column.
type attrKey struct{ table, col string }

// New creates an arraydb engine; Load chunks the microarray at DefaultChunk.
func New() *Engine { return &Engine{} }

// Name implements engine.Engine.
func (e *Engine) Name() string {
	if e.Phi {
		return "scidb-phi"
	}
	return "scidb"
}

// Supports implements engine.Engine, derived from the registered physical
// operators (ops.go): SciDB implements the full vocabulary.
func (e *Engine) Supports(q engine.QueryID) bool { return plan.Supports(e.Capabilities(), q) }

// SetWorkers pins the analytics-kernel worker count (serve.Server uses it to
// split the host's worker budget across admission slots). Call before
// concurrent queries begin.
func (e *Engine) SetWorkers(n int) { e.Workers = n }

// Close implements engine.Engine: the engine returns to its not-loaded
// state.
func (e *Engine) Close() error {
	e.expr, e.attrPages, e.goArr, e.function, e.drugResponse = nil, nil, nil, nil, nil
	return nil
}

// Load implements engine.Engine: everything is stored natively as arrays.
func (e *Engine) Load(ds *datagen.Dataset) error {
	e.expr = FromMatrix(ds.Expression, DefaultChunk, DefaultChunk)
	p := ds.Dims.Patients
	age := make([]int64, p)
	gender := make([]int64, p)
	disease := make([]int64, p)
	e.drugResponse = make([]float64, p)
	for i, pt := range ds.Patients {
		age[i] = int64(pt.Age)
		gender[i] = int64(pt.Gender)
		disease[i] = int64(pt.DiseaseID)
		e.drugResponse[i] = pt.DrugResponse
	}
	e.function = make([]int64, ds.Dims.Genes)
	for i, g := range ds.Genes {
		e.function[i] = int64(g.Function)
	}
	e.goArr = make([]uint8, len(ds.GO))
	copy(e.goArr, ds.GO)
	e.numPats, e.numGen, e.numTerm = p, ds.Dims.Genes, ds.Dims.GOTerms
	e.attrPages = map[attrKey]*colpage.IntPage{
		{plan.TablePatients, plan.ColAge}:       colpage.BuildInt(age),
		{plan.TablePatients, plan.ColGender}:    colpage.BuildInt(gender),
		{plan.TablePatients, plan.ColDiseaseID}: colpage.BuildInt(disease),
		{plan.TableGenes, plan.ColFunction}:     colpage.BuildInt(e.function),
	}
	return nil
}

// Run implements engine.Engine: compile the query into the shared operator
// IR and execute it against this engine's physical operators (ops.go).
func (e *Engine) Run(ctx context.Context, q engine.QueryID, p engine.Params) (*engine.Result, error) {
	if e.expr == nil {
		return nil, fmt.Errorf("arraydb: not loaded")
	}
	pl, err := plan.Compile(q, p)
	if err != nil {
		return nil, err
	}
	return plan.Execute(ctx, e, pl)
}

// runKernel executes an analytics kernel once. On the host the caller's
// stopwatch times it as analytics; with Phi the wall clock the stopwatch
// reads times it, and the modeled device and transfer seconds are banked
// into the stopwatch explicitly.
func (e *Engine) runKernel(ctx context.Context, sw *engine.StopWatch, kind string, inBytes, outBytes int64, kernel func() error) error {
	if !e.Phi {
		sw.StartAnalytics()
		return kernel()
	}
	if err := engine.CheckCtx(ctx); err != nil {
		return err
	}
	sw.Stop()
	start := time.Now()
	if err := kernel(); err != nil {
		return err
	}
	compute, transfer := xeonphi.Offload(kind, time.Since(start).Seconds(), inBytes, outBytes)
	sw.AddExternal(engine.Timing{
		Analytics: secondsToDuration(compute),
		Transfer:  secondsToDuration(transfer),
	})
	return nil
}

func secondsToDuration(s float64) time.Duration { return time.Duration(s * 1e9) }

type funcLookup struct{ fns []int64 }

func (f funcLookup) FunctionOf(g int) int64 { return f.fns[g] }
