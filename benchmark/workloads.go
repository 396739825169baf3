package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/genbase/genbase/internal/core"
	"github.com/genbase/genbase/internal/cost"
	"github.com/genbase/genbase/internal/datagen"
	"github.com/genbase/genbase/internal/engine"
	"github.com/genbase/genbase/internal/serve"
)

// A run sets the workload up once to measure on, and then again on the side
// after each pass or round — a set-up that is timed and thrown away — until
// those have cost setupShare of the run. setup_s is the fastest of them all:
// a set-up is mostly allocation and copying, which a busy neighbour on the
// shared host slows far more than it slows the kernels, for seconds at a
// time, so set-ups made back to back are all slow or all fast (the median of
// 30 such moved by 30% between two hours of one night, their minimum by 13%,
// the cells by 5%). The traced run and the smoke scale set up once. The share
// is chosen so that no workload's set-up time sits near a multiple of it:
// serve-fleet's 2.3-s set-up is always sampled twice.
const setupShare = 0.075

// datasetSeed generates every dataset: the seed the committed goldens pin.
// The paper's figures are fixed inputs, and one dataset's kernels cost up to
// twice another's (Cheng–Church iterations, the gene count a predicate
// selects), so a dataset drawn per run would bury a 5% regression under a
// 60% spread. --seed moves what is random in a workload — which keys are
// asked for, when requests arrive, which rows are appended — never the data
// the queries run over.
const datasetSeed = 1

type workloadKind int

const (
	closedLoopCells   workloadKind = iota // the paper's cells, one client
	servedFleet                           // the 14-member fleet behind the router
	ingestBesideServe                     // one server with a WAL store beside it
)

// workloadSpec is a workload's fixed definition. BENCHMARK.json and
// README.md record why each exists.
type workloadSpec struct {
	name    string
	kind    workloadKind
	preset  datagen.Size
	nodes   int      // node count of the cluster members
	members []string // fleet keys; none = the whole fleet
	params  engine.Params
}

// selectiveParams narrows every predicate until the kernels see at most a
// few dozen columns and the time goes to scan, select, pivot and glue.
func selectiveParams() engine.Params {
	p := engine.DefaultParams()
	p.FunctionThreshold = 25
	p.MaxAge = 22
	p.SampleFrac = 0.01
	p.MaxBiclusters = 1
	p.SVDK = 3
	return p
}

func workloads(smoke bool) map[string]*workloadSpec {
	medium := datagen.Medium
	if smoke {
		medium = datagen.Small
	}
	specs := []*workloadSpec{
		{name: "figures-medium", kind: closedLoopCells, preset: medium, nodes: 4,
			members: []string{"vanilla-r", "colstore-udf", "scidb", "pbdr@4n", "scidb@4n"}, params: engine.DefaultParams()},
		{name: "selective-medium", kind: closedLoopCells, preset: medium, nodes: 4,
			members: []string{"postgres-madlib", "postgres-r", "colstore-r", "hadoop"}, params: selectiveParams()},
		{name: "serve-fleet", kind: servedFleet, preset: datagen.Small, nodes: 2, params: engine.DefaultParams()},
		{name: "ingest-serve", kind: ingestBesideServe, preset: datagen.Small, nodes: 2,
			members: []string{"colstore-udf"}, params: engine.DefaultParams()},
	}
	out := map[string]*workloadSpec{}
	for _, s := range specs {
		out[s.name] = s
	}
	return out
}

// env is a set-up workload: generated dataset, loaded engines, and for the
// fleet the router with its warmed model.
type env struct {
	w       *workloadSpec
	fleet   []core.FleetMember
	setups  []float64 // s, every timed set-up; the first is the one measured on
	ds      *datagen.Dataset
	members []*member
	params  engine.Params
	cells   []*cell
	passMs  []float64 // wall time of each measured untraced pass over the cells
	keys    *keyspace
	router  *serve.Router // serve-fleet only
	audit   *audit
	rec     *recorder // traced run only
	scratch string
}

func (e *env) close() { closeMembers(e.members) }

// sampleSetUp times one more set-up on the side and throws it away, while
// the budget for them lasts.
func (e *env) sampleSetUp(ctx context.Context, o options) error {
	if o.trace || sum(e.setups[1:]) >= o.share(o.setupShare).Seconds() {
		return nil
	}
	tmp := &env{params: e.params, keys: e.keys, audit: e.audit, scratch: e.scratch}
	defer tmp.close()
	t0 := time.Now()
	err := setUp(ctx, e.w, e.fleet, o, tmp)
	e.setups = append(e.setups, time.Since(t0).Seconds())
	return err
}

// setUp is what setup_s times: dataset generation and every Load, and for
// the fleet what a deployment does before it takes traffic — the
// model-warming solo probes, the router, one discarded window.
func setUp(ctx context.Context, w *workloadSpec, fleet []core.FleetMember, o options, e *env) error {
	ds, err := datagen.Generate(datagen.Config{Size: w.preset, Seed: datasetSeed})
	if err != nil {
		return err
	}
	if e.members, err = loadMembers(fleet, ds, e.scratch); err != nil {
		return err
	}
	e.ds = ds
	e.cells = buildCells(e.members, e.params, 0)
	if w.kind != servedFleet {
		return nil
	}
	model := cost.NewOnline(cost.Default(), cost.FitDims)
	if err := warmModel(ctx, e.cells, model, e.audit); err != nil {
		return err
	}
	// Freeze the warmed model (see README.md, "The router's model is frozen").
	model.Alpha, model.DriftAlpha = 0, 0
	if e.router, err = buildRouter(e.members, o.procs, o.procs, model, o.trace); err != nil {
		return err
	}
	streams := make([][]request, o.procs)
	for c := range streams {
		streams[c] = e.keys.stream(o.seed, uint64(200+c), 2048)
	}
	outs, _ := closedLoop(ctx, e.router, streams, o.share(0.025), false)
	auditServed(outs, 3, nil, e.audit)
	return nil
}

// makeKeys builds the served workloads' keyspace once, before any set-up is
// timed: it is input generation, not something a deployment does.
func makeKeys(ctx context.Context, w *workloadSpec, o options, scratch string) (*keyspace, error) {
	ds, err := datagen.Generate(datagen.Config{Size: w.preset, Seed: datasetSeed})
	if err != nil {
		return nil, err
	}
	fleet, err := fleetMembers(w.nodes, []string{"scidb"})
	if err != nil {
		return nil, err
	}
	probe, err := loadMembers(fleet, ds, scratch)
	if err != nil {
		return nil, err
	}
	defer closeMembers(probe)
	perQuery, thrLo := keysPerQuery, int64(fleetThresholdLo)
	if w.kind == ingestBesideServe {
		perQuery, thrLo = ingestKeysPerQuery, ingestThresholdLo
	}
	ks := newKeyspace(ds, w.params, perQuery, thrLo, func(p engine.Params) bool {
		_, err := probe[0].eng.Run(ctx, engine.Q3Biclustering, p)
		return err == nil
	})
	if w.kind == ingestBesideServe {
		ks.queries = ingestReadQueries
	}
	for _, q := range ks.queries {
		if len(ks.variants[q]) == 0 {
			return nil, fmt.Errorf("no valid parameterisation of %s", q)
		}
	}
	return ks, nil
}

// runWorkload is one run: pre-flight against the goldens, set-up (timed,
// repeated), the workload's phases, and the metrics.
func runWorkload(w *workloadSpec, o options) (*result, error) {
	ctx := context.Background()
	if err := os.MkdirAll(repoFile(".bench_build"), 0o755); err != nil {
		return nil, err
	}
	scratch, err := os.MkdirTemp(repoFile(".bench_build"), "run-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)

	out := &result{workload: w.name, values: map[string]sample{}}
	fleet, err := fleetMembers(w.nodes, w.members)
	if err != nil {
		return nil, err
	}
	e := &env{w: w, fleet: fleet, params: w.params, audit: newAudit(), scratch: scratch}
	if o.trace {
		e.rec = newRecorder()
	}
	if err := preflight(fleet, scratch, e.audit); err != nil {
		return nil, fmt.Errorf("pre-flight: %w", err)
	}
	if w.kind != closedLoopCells {
		if e.keys, err = makeKeys(ctx, w, o, scratch); err != nil {
			return nil, err
		}
	}

	t0 := time.Now()
	if err := setUp(ctx, w, fleet, o, e); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	e.setups = []float64{time.Since(t0).Seconds()}
	defer e.close()
	if w.kind != servedFleet {
		// Let caches fill before timing; the fleet's set-up has done so.
		pass(ctx, e.cells, 0, nil, false, e.audit)
	}
	base := readRuntime()

	var ct *cellTrace
	if o.trace {
		ct = newCellTrace(e.rec, e.ds.Dims)
	}
	switch w.kind {
	case closedLoopCells:
		err = closedLoopCellsRun(ctx, e, o, ct, out)
	case servedFleet:
		err = serveFleet(ctx, e, o, ct, out)
	case ingestBesideServe:
		err = ingestServe(ctx, e, o, ct, out)
	}
	if err != nil {
		return nil, err
	}
	out.set("setup_s", fastest(e.setups), len(e.setups))

	if o.trace {
		kernelProbes(e.ds, e.params, o.probeReps, out)
		if err := storageProbes(e.ds, e.params, o.probeReps, scratch, out); err != nil {
			return nil, err
		}
		runtimeMetrics(base, max(ct.passes, 1)*2, out)
		path := filepath.Join(repoFile(".bench_build"), fmt.Sprintf("trace-%s-seed%d.json", w.name, o.seed))
		header := map[string]any{"workload": w.name, "seed": o.seed, "seconds": o.seconds}
		if err := e.rec.write(path, header, out.detail); err != nil {
			return nil, err
		}
		out.spans = e.rec.all
		if !o.quiet {
			fmt.Printf("trace %s: %d spans and %d detail rows in %s\n", w.name, len(e.rec.all), len(out.detail), path)
		}
	}
	out.attempted, out.failed, out.errs = e.audit.attempted, e.audit.failed, e.audit.errs
	return out, nil
}

// closedLoopCellsRun is a closed-loop workload's measuring time: the write
// burst, then passes over the cells, the pass loop outermost, each followed by
// one reopen of the burst's store and one set-up on the side. At least
// o.minPasses passes run whatever the budget.
func closedLoopCellsRun(ctx context.Context, e *env, o options, ct *cellTrace, out *result) error {
	start := time.Now()
	rec, err := writeBurst(e, o)
	if err != nil {
		return err
	}
	for len(e.passMs) < o.minPasses || time.Since(start) < o.share(0.9) {
		e.cellPass(ctx, ct)
		rec.reopen(e.audit)
		if err := e.sampleSetUp(ctx, o); err != nil {
			return err
		}
	}
	suite := e.cellMetrics(ct, out)
	// One client, no serve layer: the serve metrics are the same cells seen as
	// a request stream — cells answered per second at their fastest, and the
	// spread of the cells' (fastest-run) latencies.
	var best []float64
	runs := 0
	for _, c := range e.cells {
		best = append(best, fastest(c.lat))
		runs += len(c.lat)
	}
	out.set("serve_capacity_qps", float64(len(e.cells))/(suite/1e3), runs)
	out.set("serve_p50_ms", quantile(best, 0.50), len(best))
	out.set("serve_p95_ms", quantile(best, 0.95), len(best))
	rec.st.metrics(e.ds.Dims.Genes, out)
	return nil
}

// cellPass measures the workload's cells once, in order. The traced run
// follows each untraced pass with a traced one over the same cells, so the
// overhead of tracing is the ratio of two passes measured side by side.
func (e *env) cellPass(ctx context.Context, ct *cellTrace) {
	n := len(e.passMs)
	e.passMs = append(e.passMs, pass(ctx, e.cells, n, nil, true, e.audit))
	if ct != nil {
		pass(ctx, e.cells, n, ct, true, e.audit)
	}
}
