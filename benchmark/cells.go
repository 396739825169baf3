package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/genbase/genbase/internal/arraydb"
	"github.com/genbase/genbase/internal/colstore"
	"github.com/genbase/genbase/internal/core"
	"github.com/genbase/genbase/internal/cost"
	"github.com/genbase/genbase/internal/datagen"
	"github.com/genbase/genbase/internal/engine"
	"github.com/genbase/genbase/internal/linalg"
	"github.com/genbase/genbase/internal/mapreduce"
	"github.com/genbase/genbase/internal/plan"
	"github.com/genbase/genbase/internal/rengine"
	"github.com/genbase/genbase/internal/rowstore"
)

// member is one loaded configuration of a workload.
type member struct {
	core.FleetMember
	eng engine.Engine
	dir string
	// module is the engine package the configuration runs on — the layer name
	// its operator spans are filed under.
	module string
}

// moduleOf names the engine package behind a configuration.
func moduleOf(eng engine.Engine) string {
	switch eng.(type) {
	case *rengine.Engine:
		return "rengine"
	case *rowstore.Engine:
		return "rowstore"
	case *colstore.Engine:
		return "colstore"
	case *arraydb.Engine:
		return "arraydb"
	case *mapreduce.Engine:
		return "mapreduce"
	}
	return "multinode"
}

// modules lists the engine packages in the order the per-layer metrics do.
var modules = []string{"rengine", "rowstore", "colstore", "arraydb", "mapreduce", "multinode"}

// ownKernels marks the configurations whose Run* operators do not call the
// shared numeric packages (linalg, bicluster, stats): Postgres+Madlib
// simulates its kernels in SQL (rowstore/madlib.go) and Hadoop runs them as
// Mahout-style MR jobs (mapreduce/mahout.go). trace.kernel_share leaves them
// out, because a linalg change cannot move them.
func ownKernels(key string) bool {
	return key == "postgres-madlib" || strings.HasPrefix(key, "hadoop")
}

// fleetMembers returns the named members of core.FleetConfigs(nodes) in
// registry order; no names means the whole fleet. FleetMember.New is
// core.ConfigByName(..).New / multinode.New — the engine itself, not the
// genbase.NewSystem wrapper that hides plan.Physical.
func fleetMembers(nodes int, names []string) ([]core.FleetMember, error) {
	fleet, err := core.FleetConfigs(nodes)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return fleet, nil
	}
	var out []core.FleetMember
	for _, name := range names {
		found := false
		for _, fm := range fleet {
			if fm.Key == name {
				out = append(out, fm)
				found = true
			}
		}
		if !found {
			return nil, fmt.Errorf("no fleet member %q at %d nodes", name, nodes)
		}
	}
	return out, nil
}

// loadMembers builds and loads every member; scratch holds the disk-backed
// engines' directories.
func loadMembers(fleet []core.FleetMember, ds *datagen.Dataset, scratch string) ([]*member, error) {
	var members []*member
	for _, fm := range fleet {
		dir, err := os.MkdirTemp(scratch, "eng-*")
		if err != nil {
			closeMembers(members)
			return nil, err
		}
		m := &member{FleetMember: fm, eng: fm.New(dir), dir: dir}
		m.module = moduleOf(m.eng)
		members = append(members, m)
		if err := m.eng.Load(ds); err != nil {
			closeMembers(members)
			return nil, fmt.Errorf("%s: load: %w", fm.Key, err)
		}
	}
	return members, nil
}

func closeMembers(members []*member) {
	for _, m := range members {
		m.eng.Close()
		os.RemoveAll(m.dir)
	}
}

// answerHash is the golden tests' canonical form: SHA-256 of the answer's
// typed JSON encoding (Go prints float64 shortest-round-trip, so the hash is
// bitwise faithful).
func answerHash(answer any) (string, error) {
	b, err := json.Marshal(answer)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// audit is the correctness gate. Every operation the benchmark issues is
// attempted once and fails if it errors, or if its answer hash differs from
// the first answer seen for the same (answer class, epoch, query, params) —
// members of one class must agree bit for bit.
type audit struct {
	attempted, failed int
	first             map[auditKey]string
	errs              []string
}

type auditKey struct {
	class string
	epoch uint64
	q     engine.QueryID
	p     engine.Params
}

func newAudit() *audit { return &audit{first: map[auditKey]string{}} }

func (a *audit) fail(format string, args ...any) {
	a.failed++
	if len(a.errs) < 8 {
		a.errs = append(a.errs, fmt.Sprintf(format, args...))
	}
}

// op counts one operation that has no answer to compare (an append, a
// checkpoint, a reopen).
func (a *audit) op(what string, err error) {
	a.attempted++
	if err != nil {
		a.fail("%s: %v", what, err)
	}
}

// answer counts one query and checks its answer against its class.
func (a *audit) answer(who string, k auditKey, res *engine.Result, err error) {
	a.attempted++
	if err != nil {
		a.fail("%s %s: %v", who, k.q, err)
		return
	}
	h, err := answerHash(res.Answer)
	if err != nil {
		a.fail("%s %s: hash: %v", who, k.q, err)
		return
	}
	if want, ok := a.first[k]; !ok {
		a.first[k] = h
	} else if want != h {
		a.fail("%s %s: answer %s differs from class %s answer %s", who, k.q, h[:12], k.class, want[:12])
	}
}

// preflight pins the configurations a workload uses to the committed goldens:
// small preset, seed 1, DefaultParams, the paper's five queries. A member
// with no golden of its own (single-node scidb-phi, the 2-node clusters —
// answers are node-count invariant) must match the golden of its answer
// class.
func preflight(fleet []core.FleetMember, scratch string, a *audit) error {
	raw, err := os.ReadFile(repoFile("testdata/golden_answers.json"))
	if err != nil {
		return err
	}
	golden := map[string]string{}
	if err := json.Unmarshal(raw, &golden); err != nil {
		return err
	}
	ds, err := datagen.Generate(datagen.Config{Size: datagen.Small, Seed: 1})
	if err != nil {
		return err
	}
	members, err := loadMembers(fleet, ds, scratch)
	if err != nil {
		return err
	}
	defer closeMembers(members)
	goldenKey := func(key string) string {
		if base, _, ok := strings.Cut(key, "@"); ok {
			return base + "@4n"
		}
		return key
	}
	classGolden := map[string]string{} // class/query → hash
	for _, m := range members {
		for _, q := range engine.AllQueries() {
			if h, ok := golden[goldenKey(m.Key)+"/"+q.String()]; ok {
				classGolden[m.Class+"/"+q.String()] = h
			}
		}
	}
	p := engine.DefaultParams()
	for _, m := range members {
		for _, q := range engine.AllQueries() {
			if !m.eng.Supports(q) {
				continue
			}
			a.attempted++
			res, err := m.eng.Run(context.Background(), q, p)
			if err != nil {
				a.fail("preflight %s %s: %v", m.Key, q, err)
				continue
			}
			got, err := answerHash(res.Answer)
			if err != nil {
				a.fail("preflight %s %s: %v", m.Key, q, err)
				continue
			}
			want, ok := golden[goldenKey(m.Key)+"/"+q.String()]
			if !ok {
				want, ok = classGolden[m.Class+"/"+q.String()]
			}
			if !ok {
				a.fail("preflight %s %s: no golden answer for the configuration or its class", m.Key, q)
			} else if got != want {
				a.fail("preflight %s %s: answer %s, golden %s", m.Key, q, got[:12], want[:12])
			}
		}
	}
	return nil
}

// cell is one (configuration, query) pair of a workload — a Figure-1 cell.
type cell struct {
	m     *member
	q     engine.QueryID
	p     engine.Params
	epoch uint64    // snapshot epoch the member's engine was loaded at
	lat   []float64 // ms, one per measured untraced pass
}

func (c *cell) label() string { return c.m.Key + "/" + c.q.String() }

// buildCells pairs every member with every query it supports.
func buildCells(members []*member, p engine.Params, epoch uint64) []*cell {
	var cells []*cell
	for _, m := range members {
		for _, q := range engine.AllScenarios() {
			if m.eng.Supports(q) {
				cells = append(cells, &cell{m: m, q: q, p: p, epoch: epoch})
			}
		}
	}
	return cells
}

// cellTrace accumulates the traced passes of a workload's cells.
type cellTrace struct {
	rec   *recorder
	model *cost.Online
	// byKind sums operator span time per "<module>.<kind>" and transfer time
	// per "<module>.transfer", in ms over all traced passes.
	byKind      map[string]float64
	sharedKern  float64 // ms in shared-kernel Run* spans, transfer excluded
	execSelf    float64 // ms of plan.execute self time
	compileUs   []float64
	estimateUs  []float64
	passes      int
	passWallMs  []float64
	cellKernel  map[string][]float64 // label → kernel fraction per traced pass
	cellSplitMs map[string][3]float64
}

func newCellTrace(rec *recorder, dims datagen.Dims) *cellTrace {
	return &cellTrace{
		rec:         rec,
		model:       cost.NewOnline(cost.Default(), cost.Dims{Patients: dims.Patients, Genes: dims.Genes, GOTerms: dims.GOTerms}),
		byKind:      map[string]float64{},
		cellKernel:  map[string][]float64{},
		cellSplitMs: map[string][3]float64{},
	}
}

// runCell executes one cell untraced: engine.Run, timed from outside.
func runCell(ctx context.Context, c *cell) (*engine.Result, time.Duration, error) {
	start := time.Now()
	res, err := c.m.eng.Run(ctx, c.q, c.p)
	return res, time.Since(start), err
}

// runCellTraced executes one cell under the span recorder. A single-node
// engine is its own plan.Physical, so the cell runs as plan.Compile +
// cost estimate + plan.Execute over the decorated operators — the engine's
// own Run minus nothing. The virtual-cluster engines build their physical
// executor privately per Run; from outside they are one multinode.Run span,
// apportioned between pivot and kernel by the virtual phase split they
// report.
func (ct *cellTrace) runCellTraced(ctx context.Context, c *cell) (*engine.Result, time.Duration, error) {
	t := ct.rec.request(c.label())
	start := time.Now()
	var res *engine.Result
	var err error
	ph, single := c.m.eng.(plan.Physical[*linalg.Matrix])
	if single {
		var pl *plan.Plan
		end := t.timed("plan.compile")
		pl, err = plan.Compile(c.q, c.p)
		end()
		if err == nil {
			end = t.timed("cost.estimate")
			ct.model.Estimate(pl, c.m.Config)
			end()
			end = t.timed("plan.execute")
			res, err = plan.Execute[*linalg.Matrix](ctx, &tracedPhysical{Physical: ph, t: t, module: c.m.module}, pl)
			end()
		}
	} else {
		end := t.timed("multinode.Run")
		res, err = c.m.eng.Run(ctx, c.q, c.p)
		end()
	}
	wall := time.Since(start)
	spans := t.done()
	if err != nil {
		return nil, wall, err
	}

	kernelMs := 0.0
	for i := range spans {
		s := &spans[i]
		d := float64(s.DurNs) / 1e6
		switch {
		case s.Name == "plan.compile":
			ct.compileUs = append(ct.compileUs, d*1e3)
		case s.Name == "cost.estimate":
			ct.estimateUs = append(ct.estimateUs, d*1e3)
		case s.Name == "plan.execute":
			ct.execSelf += float64(selfNs(spans, s.ID)) / 1e6
		case s.Name == "multinode.Run":
			// Virtual clocks: split the measured wall by the reported share.
			share := ratio(float64(res.Timing.Analytics), float64(res.Timing.Total()))
			ct.byKind["multinode.kernel"] += d * share
			ct.byKind["multinode.pivot"] += d * (1 - share)
			kernelMs = d * share
		default:
			module, method, _ := strings.Cut(s.Name, ".")
			if kind := opKind(method); kind != "" {
				ct.byKind[module+"."+kind] += d
				if kind == "kernel" {
					kernelMs += d
				}
			}
		}
	}
	if single {
		transfer := ms(res.Timing.Transfer)
		ct.byKind[c.m.module+".transfer"] += transfer
		ct.byKind[c.m.module+".kernel"] -= transfer
		kernelMs -= transfer
	}
	if !ownKernels(c.m.Key) {
		ct.sharedKern += kernelMs
	}
	ct.cellKernel[c.label()] = append(ct.cellKernel[c.label()], ratio(kernelMs, ms(wall)))
	ct.cellSplitMs[c.label()] = [3]float64{ms(res.Timing.DataManagement), ms(res.Timing.Analytics), ms(res.Timing.Transfer)}
	return res, wall, nil
}

// slowCellMs marks a cell as slow: one whose fastest run is longer runs in
// every other pass only. selective-medium's Hadoop covariance takes 2.7 s of
// a 3-s pass; run every time, it would leave the other 21 cells five samples
// each in a run, too few for one of them to be undisturbed.
const slowCellMs = 1000

// pass runs the cells once, in order (pass number n; an odd pass skips the
// slow cells), and returns the wall time of the whole pass in ms. Answers are
// hashed after the clock stops. With record false the pass is a warm-up:
// nothing is kept, but answers are still checked.
func pass(ctx context.Context, cells []*cell, n int, ct *cellTrace, record bool, a *audit) float64 {
	results := make([]*engine.Result, len(cells))
	errs := make([]error, len(cells))
	ran := make([]bool, len(cells))
	start := time.Now()
	for i, c := range cells {
		if n%2 == 1 && len(c.lat) > 0 && fastest(c.lat) > slowCellMs {
			continue
		}
		ran[i] = true
		var d time.Duration
		if ct != nil {
			results[i], d, errs[i] = ct.runCellTraced(ctx, c)
		} else {
			results[i], d, errs[i] = runCell(ctx, c)
			if record {
				c.lat = append(c.lat, ms(d))
			}
		}
	}
	wall := ms(time.Since(start))
	if ct != nil {
		ct.passes++
		ct.passWallMs = append(ct.passWallMs, wall)
	}
	for i, c := range cells {
		if ran[i] {
			a.answer(c.m.Key, auditKey{class: c.m.Class, epoch: c.epoch, q: c.q, p: c.p}, results[i], errs[i])
		}
	}
	return wall
}

// queryMetric names the end-to-end metric of each query.
var queryMetric = map[engine.QueryID]string{
	engine.Q1Regression:       "q1_regression_ms",
	engine.Q2Covariance:       "q2_covariance_ms",
	engine.Q3Biclustering:     "q3_biclustering_ms",
	engine.Q4SVD:              "q4_svd_ms",
	engine.Q5Statistics:       "q5_statistics_ms",
	engine.Q6CohortRegression: "q6_cohort_ms",
}

// cellMetrics folds the measured passes into the end-to-end metrics of the
// cells and returns suite_ms: the sum over the cells of each cell's fastest
// run — what one pass costs when nothing disturbs it. (The fastest whole pass
// is not that: a pass of seconds never runs undisturbed from end to end on
// the shared host, its cells one at a time do.) q<N>_*_ms is the geometric
// mean over the supporting configurations of each cell's fastest run. Whole
// passes and medians ride along as detail rows; the traced run adds the
// operator split.
func (e *env) cellMetrics(ct *cellTrace, out *result) float64 {
	suite := 0.0
	perQuery := map[engine.QueryID][]float64{}
	runs := map[engine.QueryID]int{}
	for _, c := range e.cells {
		best := fastest(c.lat)
		suite += best
		perQuery[c.q] = append(perQuery[c.q], best)
		runs[c.q] += len(c.lat)
		out.detail = append(out.detail, map[string]any{"row": "cell", "cell": c.label(), "fastest_ms": best, "median_ms": median(c.lat), "passes": len(c.lat)})
	}
	out.set("suite_ms", suite, len(e.passMs))
	out.detail = append(out.detail, map[string]any{"row": "suite", "cells_fastest_ms": suite, "fastest_pass_ms": fastest(e.passMs), "median_pass_ms": median(e.passMs), "passes": len(e.passMs)})
	for q, name := range queryMetric {
		out.set(name, geomean(perQuery[q]), runs[q])
	}
	if ct != nil {
		ct.layerMetrics(out, fastest(e.passMs))
	}
	return suite
}

// layerMetrics reports the traced passes' operator split, per traced pass,
// under the module names.
func (ct *cellTrace) layerMetrics(out *result, untracedSuiteMs float64) {
	n := float64(max(ct.passes, 1))
	for _, mod := range modules {
		for _, kind := range []string{"select", "pivot", "meta", "kernel", "transfer"} {
			out.set(mod+"."+kind+"_ms", ct.byKind[mod+"."+kind]/n, ct.passes)
		}
	}
	out.set("plan.compile_us", median(ct.compileUs), len(ct.compileUs))
	out.set("cost.estimate_us", median(ct.estimateUs), len(ct.estimateUs))
	out.set("plan.exec_self_ms", ct.execSelf/n, ct.passes)
	tracedSuite := fastest(ct.passWallMs)
	out.set("trace.kernel_share", ratio(ct.sharedKern/n, sum(ct.passWallMs)/n), ct.passes)
	out.set("trace.overhead_frac", ratio(tracedSuite, untracedSuiteMs)-1, ct.passes)
	for label, fr := range ct.cellKernel {
		split := ct.cellSplitMs[label]
		out.detail = append(out.detail, map[string]any{"row": "cell_trace", "cell": label, "kernel_fraction": median(fr),
			"engine_dm_ms": split[0], "engine_analytics_ms": split[1], "engine_transfer_ms": split[2]})
	}
}
