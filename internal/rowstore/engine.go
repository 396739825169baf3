package rowstore

import (
	"context"
	"fmt"
	"os"
	"path/filepath"

	"github.com/genbase/genbase/internal/analytics"
	"github.com/genbase/genbase/internal/datagen"
	"github.com/genbase/genbase/internal/engine"
	planir "github.com/genbase/genbase/internal/plan"
)

// Mode selects the analytics configuration.
type Mode int

// The two Postgres configurations from the paper (§4.1, configurations 2–3).
const (
	// ModeR exports query results to an external R process (text COPY).
	ModeR Mode = iota
	// ModeMadlib runs analytics inside the database: native UDFs where
	// Madlib has C++ implementations, SQL/plpython simulation elsewhere.
	ModeMadlib
)

// Engine is the row-store system under test.
type Engine struct {
	// Workers is the analytics-kernel worker count (0 = the GENBASE_PARALLEL
	// / NumCPU default). Answers are bitwise identical at any value.
	Workers int

	mode Mode
	dir  string
	db   *DB
	glue analytics.Glue
	// sidecars are the compressed columnar twins (sidecar.go) of the scan
	// tables, built at Load; selections, full scans and the Q5 sample read
	// them instead of the heap.
	sidecars map[string]*tableSidecar

	numPatients, numGenes, numTerms int
}

// New creates a row-store engine rooted at dir.
func New(dir string, mode Mode) *Engine {
	return &Engine{mode: mode, dir: dir, glue: analytics.TextGlue{}}
}

// Name implements engine.Engine.
func (e *Engine) Name() string {
	if e.mode == ModeMadlib {
		return "postgres-madlib"
	}
	return "postgres-r"
}

// Supports implements engine.Engine, derived from the registered physical
// operators: Madlib does not register the biclustering kernel (ops.go), so
// any plan containing it is unsupported — no hardcoded query switch.
func (e *Engine) Supports(q engine.QueryID) bool {
	return planir.Supports(e.Capabilities(), q)
}

// SetWorkers pins the analytics-kernel worker count (serve.Server uses it to
// split the host's worker budget across admission slots). Call before
// concurrent queries begin.
func (e *Engine) SetWorkers(n int) { e.Workers = n }

// Load implements engine.Engine. It first releases anything an earlier Load
// left (this engine's tables, or *.colseg sidecars orphaned in the directory
// by a process that never reached Close), so a reload overwrites rather than
// accumulates.
func (e *Engine) Load(ds *datagen.Dataset) error {
	if err := e.Close(); err != nil {
		return err
	}
	orphans, err := filepath.Glob(filepath.Join(e.dir, "*.colseg"))
	if err != nil {
		return err
	}
	for _, f := range orphans {
		if err := os.Remove(f); err != nil {
			return err
		}
	}
	db, err := OpenDB(e.dir)
	if err != nil {
		return err
	}
	if err := db.LoadDataset(ds); err != nil {
		db.Close()
		return err
	}
	e.db = db
	e.numPatients = ds.Dims.Patients
	e.numGenes = ds.Dims.Genes
	e.numTerms = ds.Dims.GOTerms
	e.sidecars = make(map[string]*tableSidecar)
	for _, name := range []string{"microarray", "patients", "genes"} {
		sc, err := buildTableSidecar(context.Background(), db, name)
		if err != nil {
			e.Close()
			return err
		}
		e.sidecars[name] = sc
	}
	return nil
}

// Close implements engine.Engine: it removes the sidecars and heap files and
// returns the engine to its not-loaded state.
func (e *Engine) Close() error {
	var err error
	for _, sc := range e.sidecars {
		if rerr := sc.remove(); rerr != nil && err == nil {
			err = rerr
		}
	}
	e.sidecars = nil
	if e.db != nil {
		if cerr := e.db.Close(); cerr != nil && err == nil {
			err = cerr
		}
		e.db = nil
	}
	return err
}

// Run implements engine.Engine: compile the query into the shared operator
// IR and execute it against this engine's physical operators (ops.go).
func (e *Engine) Run(ctx context.Context, q engine.QueryID, p engine.Params) (*engine.Result, error) {
	if e.db == nil {
		return nil, fmt.Errorf("rowstore: not loaded")
	}
	pl, err := planir.Compile(q, p)
	if err != nil {
		return nil, err
	}
	return planir.Execute(ctx, e, pl)
}

type funcLookup struct{ fns []int64 }

func (f funcLookup) FunctionOf(g int) int64 { return f.fns[g] }
