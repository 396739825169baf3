// Package engine defines the contract every GenBase system-under-test
// implements: the five benchmark queries (paper §3.2), their parameters, the
// engine-agnostic answer types used for cross-engine validation, and the
// data-management vs analytics timing split the paper reports (Figures 2, 4).
package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/genbase/genbase/internal/datagen"
)

// QueryID names a benchmark query.
type QueryID int

// The five GenBase queries, plus the scenarios added on top of the paper's
// workload. A scenario is planner-only: it compiles to the shared operator IR
// (internal/plan) and runs on every engine whose physical operators cover the
// plan, with zero per-engine query code.
const (
	Q1Regression QueryID = iota + 1
	Q2Covariance
	Q3Biclustering
	Q4SVD
	Q5Statistics
	// Q6CohortRegression is Q1 restricted to a disease cohort: regress drug
	// response on the selected genes' expression over only the patients with
	// Params.DiseaseID — a Q1×Q2 predicate combination no engine had a
	// hardcoded method for.
	Q6CohortRegression
)

func (q QueryID) String() string {
	switch q {
	case Q1Regression:
		return "regression"
	case Q2Covariance:
		return "covariance"
	case Q3Biclustering:
		return "biclustering"
	case Q4SVD:
		return "svd"
	case Q5Statistics:
		return "statistics"
	case Q6CohortRegression:
		return "cohort-regression"
	default:
		return fmt.Sprintf("query(%d)", int(q))
	}
}

// AllQueries lists the paper's five queries in paper order (the benchmark
// sweeps iterate these; added scenarios are in AllScenarios).
func AllQueries() []QueryID {
	return []QueryID{Q1Regression, Q2Covariance, Q3Biclustering, Q4SVD, Q5Statistics}
}

// AllScenarios lists every runnable query: the paper's five plus the
// planner-only additions.
func AllScenarios() []QueryID {
	return append(AllQueries(), Q6CohortRegression)
}

// Params carries the per-query predicates from §3.2. DefaultParams matches
// the paper's examples.
type Params struct {
	// Q1 and Q4: select genes with Function < FunctionThreshold.
	FunctionThreshold int64
	// Q2: select patients with DiseaseID.
	DiseaseID int64
	// Q2: keep the top fraction of gene pairs by |covariance|.
	CovarianceTopFrac float64
	// Q3: select patients with Gender and Age < MaxAge.
	Gender byte
	MaxAge int64
	// Q3: biclustering controls.
	MaxBiclusters int
	// Q4: number of singular values (the paper's 50, scaled to 10 by default).
	SVDK int
	// Q5: fraction of patients sampled (paper example 0.25%; scaled up to
	// 2.5% so the sample is non-empty at 1/20 data scale).
	SampleFrac float64
	// Seed drives the deterministic pieces (Lanczos start vector, bicluster
	// masking).
	Seed uint64
	// Q6: select genes with Function < CohortFunctionThreshold. Tighter than
	// Q1's threshold because the regression runs over a single disease
	// cohort — the design matrix must keep fewer gene columns than cohort
	// rows for the least-squares solve to stay determined.
	CohortFunctionThreshold int64
}

// DefaultParams returns the paper's example parameters adapted to our scale.
func DefaultParams() Params {
	return Params{
		FunctionThreshold: 250, // "for example, function < 250"
		DiseaseID:         5,   // "patients with some disease (e.g. cancer)"
		CovarianceTopFrac: 0.10,
		Gender:            'M', // "male patients less than 40 years old"
		MaxAge:            40,
		MaxBiclusters:     5,
		SVDK:              10,
		SampleFrac:        0.025,
		Seed:              1,
		// ~2.5% of the function-code range: a handful of genes, so the
		// cohort regression stays determined even on the small preset's
		// ~dozen-patient cohorts.
		CohortFunctionThreshold: 25,
	}
}

// ErrBadParams marks a query rejected at admission because its parameters
// are out of range. Before the plan layer, bad params flowed silently into
// the kernels (a SVDK of 0 produced an empty Lanczos run, a SampleFrac of 0
// quietly sampled every patient); now plan compilation and serve admission
// both reject them up front.
var ErrBadParams = errors.New("engine: invalid query parameters")

// Admission bounds: a request may be arbitrarily wrong but not arbitrarily
// expensive. The serving tier runs Validate at the door, so the knobs that
// scale kernel work directly (rather than through the data) carry generous
// upper limits — far above anything the benchmark uses (the paper's largest
// k is 50, its bicluster budget 5) yet small enough that no single request
// can pin a server. Fuzzed admission (FuzzParamsPlan) relies on these: any
// validated parameterization must execute without panicking or hanging.
const (
	// MaxSVDK bounds Q4's requested singular values (the kernel additionally
	// clamps k to the matrix dimensions).
	MaxSVDK = 4096
	// MaxBiclusterBudget bounds Q3's extraction loop, which re-runs the
	// Cheng–Church search once per requested bicluster.
	MaxBiclusterBudget = 1024
)

// Validate checks the parameters a query actually uses. Fields irrelevant to
// q are ignored — they do not affect the plan, the answer, or the plan
// fingerprint. It is called at plan-compile time and again at serve
// admission, so a bad request fails fast instead of inside a kernel.
func (p Params) Validate(q QueryID) error {
	switch q {
	case Q1Regression, Q6CohortRegression:
		// FunctionThreshold and DiseaseID are unconstrained predicates; an
		// empty selection is reported by the plan's row guards, not here.
		return nil
	case Q2Covariance:
		// Inverted comparisons so NaN (false on every ordered compare)
		// lands in the reject branch, not the accept branch.
		if !(p.CovarianceTopFrac > 0 && p.CovarianceTopFrac <= 1) {
			return fmt.Errorf("%w: CovarianceTopFrac %v outside (0,1]", ErrBadParams, p.CovarianceTopFrac)
		}
	case Q3Biclustering:
		if p.MaxBiclusters < 1 || p.MaxBiclusters > MaxBiclusterBudget {
			return fmt.Errorf("%w: MaxBiclusters %d outside [1,%d]", ErrBadParams, p.MaxBiclusters, MaxBiclusterBudget)
		}
	case Q4SVD:
		if p.SVDK <= 0 || p.SVDK > MaxSVDK {
			return fmt.Errorf("%w: SVDK %d outside [1,%d]", ErrBadParams, p.SVDK, MaxSVDK)
		}
	case Q5Statistics:
		if !(p.SampleFrac > 0 && p.SampleFrac < 1) {
			return fmt.Errorf("%w: SampleFrac %v outside (0,1)", ErrBadParams, p.SampleFrac)
		}
	default:
		return ErrUnsupported
	}
	return nil
}

// SamplePatientStep converts SampleFrac into the deterministic modulus used
// by every engine for Q5: patients with id % step == 0 are sampled. A shared
// rule keeps answers comparable across engines.
func (p Params) SamplePatientStep() int {
	if p.SampleFrac <= 0 || p.SampleFrac >= 1 {
		return 1
	}
	step := int(1/p.SampleFrac + 0.5)
	if step < 1 {
		step = 1
	}
	return step
}

// Timing is the paper's cost breakdown. Transfer covers copy/reformat
// between the DBMS and the external analytics package (the "glue" cost of
// the +R configurations) or host↔coprocessor movement; the harness folds it
// into data management when reproducing Figures 2 and 4.
type Timing struct {
	DataManagement time.Duration
	Analytics      time.Duration
	Transfer       time.Duration
}

// Total is end-to-end elapsed time.
func (t Timing) Total() time.Duration { return t.DataManagement + t.Analytics + t.Transfer }

// Add accumulates another timing.
func (t *Timing) Add(o Timing) {
	t.DataManagement += o.DataManagement
	t.Analytics += o.Analytics
	t.Transfer += o.Transfer
}

// Result is a completed query run.
type Result struct {
	Query  QueryID
	Timing Timing
	Answer any // one of the *Answer types below

	// Degraded reports that the run survived faults on the way to its answer
	// — transient retries, replica failovers, or hedged stragglers. The
	// answer is still bitwise identical to a fault-free run (it is a pure
	// function of the shard partition, DESIGN.md §14); only the virtual
	// timing carries the recovery cost. The serving tier counts degraded
	// completions separately from clean ones.
	Degraded bool
}

// Engine is a system under test. Load ingests the neutral dataset into the
// engine's own storage format (not timed as part of queries, matching the
// paper's separation of load from query time).
//
// Concurrency contract (DESIGN.md §11): Load and Close are single-goroutine
// and must not overlap Run. Once Load has returned, the engines accept
// concurrent Run calls: loaded state is read-only during queries, per-query
// scratch comes from the goroutine-safe linalg arena or query-local
// allocations, and the storage buffer pool arbitrates page access under its
// own lock. The multinode virtual-cluster engines joined the contract with
// the distributed plan layer (DESIGN.md §13): each Run executes on its own
// fresh virtual cluster, so the simulated clocks are query-local state.
// Answers are bitwise identical to a serial run. (Concurrent queries can
// time-share host cores and so perturb each other's measured — and therefore
// virtual — durations; answers are unaffected.) The multi-node Hadoop
// wrapper likewise runs each query's MR jobs on their own virtual cluster.
//
// Ingest and snapshots (DESIGN.md §18): engines themselves stay immutable
// after Load — writes never reach a loaded engine. New rows land in a WAL
// store (internal/wal) beside the engine; a checkpoint folds them into an
// immutable snapshot dataset at the next epoch, a fresh engine is Loaded
// from that snapshot, and serve.Server.Swap atomically replaces the served
// generation. Queries pin an (engine, epoch) pair at admission and finish
// on it, so a displaced engine must stay open until its in-flight queries
// drain; its answers — and its result-cache entries, keyed by epoch — stay
// valid for the epoch they were computed at.
type Engine interface {
	Name() string
	Load(ds *datagen.Dataset) error
	Supports(q QueryID) bool
	Run(ctx context.Context, q QueryID, p Params) (*Result, error)
	Close() error
}

// Sentinel failures. The harness renders both as the paper's "infinite"
// results (horizontal cutoff lines in the charts).
var (
	// ErrOutOfMemory corresponds to "temporary space allocation failed".
	ErrOutOfMemory = errors.New("engine: memory budget exceeded")
	// ErrUnsupported marks a query the configuration cannot run (e.g.
	// biclustering on Hadoop or Postgres+Madlib).
	ErrUnsupported = errors.New("engine: query not supported by this configuration")
)

// StopWatch accumulates phase timings with explicit phase switches. Each
// query owns its own StopWatch (a local in the engine's query method); the
// mutex guards the few cross-goroutine touches the serve path allows — a
// harness reading Timing while a query is mid-phase — and costs nothing
// uncontended.
//
// Clock is the clock of the platform the query runs on, read at every
// switch. The zero value reads the wall clock; on a virtual cluster it reads
// the cluster's makespan, so the phase split is simulated time.
type StopWatch struct {
	Clock func() time.Time

	mu     sync.Mutex
	timing Timing
	start  time.Time
	phase  int // 0 none, 1 dm, 2 analytics, 3 transfer
}

// StartDM begins (or switches to) the data-management phase.
func (s *StopWatch) StartDM() { s.switchTo(1) }

// StartAnalytics begins (or switches to) the analytics phase.
func (s *StopWatch) StartAnalytics() { s.switchTo(2) }

// StartTransfer begins (or switches to) the transfer/reformat phase.
func (s *StopWatch) StartTransfer() { s.switchTo(3) }

// Stop ends the current phase.
func (s *StopWatch) Stop() { s.switchTo(0) }

// Timing returns the accumulated phase durations, counting any in-flight
// phase up to now. It is a pure read: it neither banks the in-flight slice
// nor resets the phase start, so calling it twice (or concurrently with a
// running phase) cannot double-count.
func (s *StopWatch) Timing() Timing {
	now := s.now()
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.timing
	t.addPhase(s.phase, now.Sub(s.start))
	return t
}

// AddExternal folds in time measured elsewhere (the Xeon Phi model's
// device time).
func (s *StopWatch) AddExternal(t Timing) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.timing.Add(t)
}

func (s *StopWatch) now() time.Time {
	if s.Clock != nil {
		return s.Clock()
	}
	return time.Now()
}

func (s *StopWatch) switchTo(phase int) {
	now := s.now()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.timing.addPhase(s.phase, now.Sub(s.start))
	s.phase = phase
	s.start = now
}

// addPhase credits d to the StopWatch phase (0 credits nothing).
func (t *Timing) addPhase(phase int, d time.Duration) {
	switch phase {
	case 1:
		t.DataManagement += d
	case 2:
		t.Analytics += d
	case 3:
		t.Transfer += d
	}
}

// CheckCtx returns the context error, if any. Engines call it inside long
// loops so the harness timeout (the paper's 2-hour cutoff) is honored.
func CheckCtx(ctx context.Context) error {
	select {
	case <-ctx.Done():
		return ctx.Err()
	default:
		return nil
	}
}
