package main

import (
	"context"
	"sort"
	"time"

	"github.com/genbase/genbase/internal/cost"
	"github.com/genbase/genbase/internal/engine"
	"github.com/genbase/genbase/internal/plan"
	"github.com/genbase/genbase/internal/serve"
)

// Frozen serve-fleet constants (README.md, "Frozen constants").
const (
	// keysPerQuery bounds each query's parameterisations; with Zipf(0.8) and
	// the router's default 256-entry cache it puts the hit ratio at 0.2–0.45.
	// Gene predicates start at function code fleetThresholdLo.
	keysPerQuery     = 683
	fleetThresholdLo = 100
	// The rate ladder: round numbers near a quarter, a half and three quarters
	// of the closed-loop capacity measured once on the reference host. The
	// gated percentiles are taken at the lowest: at half of capacity a host
	// that runs 10% slower queues 30% longer, and ten runs no longer agree.
	rateLowQPS, rateMidQPS, rateHighQPS = 300.0, 600.0, 900.0
	// latencyLimitMs is the p95 limit of the ladder (about 5x the unloaded
	// p50 of an executed query).
	latencyLimitMs = 25.0
)

// buildRouter puts the members behind serve.NewRouter the way
// cmd/genbase-bench/serve.go does: one cacheless Server per member at the
// client count's admission width (1 for the serial-only cluster Hadoop), the
// kernel-worker budget split across the slots, policy cost, the router's
// result cache at its default size. The traced run wraps every engine.
func buildRouter(members []*member, clients, workers int, model *cost.Online, traced bool) (*serve.Router, error) {
	backends := make([]serve.Backend, 0, len(members))
	for _, m := range members {
		width := clients
		if m.Serial {
			width = 1
		}
		eng := m.eng
		if traced {
			eng = &tracedEngine{Engine: m.eng, key: m.Key}
		}
		backends = append(backends, serve.Backend{
			Server: serve.New(eng, serve.Options{MaxConcurrent: width, WorkerBudget: workers, DisableCache: true}),
			Config: m.Config,
			Class:  m.Class,
		})
	}
	return serve.NewRouter(backends, serve.RouterOptions{Model: model})
}

// warmModel grounds the router's online model in what each member costs on
// this host: a solo probe per (member, query), observed at wall clock. A
// probe under warmReprobeBelow is repeated twice more and the fastest kept:
// vanilla-r and scidb are within 20% of each other on most queries, and a
// single noisy probe would decide which of them serves the whole run. It
// doubles as the cells' warm-up pass.
func warmModel(ctx context.Context, cells []*cell, model *cost.Online, a *audit) error {
	const warmReprobeBelow = 20 * time.Millisecond
	for _, c := range cells {
		pl, err := plan.Compile(c.q, c.p)
		if err != nil {
			return err
		}
		res, best, err := runCell(ctx, c)
		a.answer(c.m.Key, auditKey{class: c.m.Class, q: c.q, p: c.p}, res, err)
		if err != nil {
			continue
		}
		for i := 0; i < 2 && best < warmReprobeBelow; i++ {
			if _, d, err := runCell(ctx, c); err == nil && d < best {
				best = d
			}
		}
		model.ObserveWall(c.m.Config, pl, float64(best.Nanoseconds()))
	}
	return nil
}

// windowStats is one open- or closed-loop window, reduced.
type windowStats struct {
	n, failed        int
	p50, p95, p99    float64 // ms from scheduled arrival, failures above all
	queueWaitP95     float64 // ms scheduled → dequeued
	genLateP99       float64 // ms scheduled → actually sent
	backlog          int
	hits             int
	serviceMs, hitUs []float64 // Run duration on misses / hits
	routeOverheadUs  []float64 // Run − engine.Run on traced misses
	lat              []float64 // ms from scheduled arrival, every request
}

// merge pools another window's counts and per-request samples into w (not
// its percentiles, which belong to one window).
func (w *windowStats) merge(o windowStats) {
	w.n += o.n
	w.failed += o.failed
	w.hits += o.hits
	w.serviceMs = append(w.serviceMs, o.serviceMs...)
	w.hitUs = append(w.hitUs, o.hitUs...)
	w.routeOverheadUs = append(w.routeOverheadUs, o.routeOverheadUs...)
}

func reduceWindow(outs []outcome, window time.Duration, backlog int) windowStats {
	w := windowStats{n: len(outs), backlog: backlog}
	lat := latencies(outs, window)
	w.lat = lat
	w.p50, w.p95, w.p99 = quantile(lat, 0.50), quantile(lat, 0.95), quantile(lat, 0.99)
	var wait, late []float64
	for i := range outs {
		o := &outs[i]
		if o.err != nil {
			w.failed++
			continue
		}
		wait = append(wait, ms(o.dequeued-o.sched))
		late = append(late, ms(o.sent-o.sched))
		run := o.done - o.dequeued
		if o.hit {
			w.hits++
			w.hitUs = append(w.hitUs, us(run))
			continue
		}
		w.serviceMs = append(w.serviceMs, ms(run))
		if o.sv != nil && o.sv.engineNs > 0 {
			w.routeOverheadUs = append(w.routeOverheadUs, us(run)-float64(o.sv.engineNs)/1e3)
		}
	}
	w.queueWaitP95 = quantile(wait, 0.95)
	w.genLateP99 = quantile(late, 0.99)
	return w
}

// auditServed checks the answers of served requests after the clock has
// stopped. The router does not say which member answered, so a key's answers
// may take as many distinct values as the fleet has answer classes (epochs,
// on a swapping server) — more is a wrong answer. A seeded sample of keys is
// additionally pinned to reference answers computed directly on one member
// of each class.
func auditServed(outs []outcome, maxDistinct int, refs []*member, a *audit) {
	hashOf := map[*engine.Result]string{}
	distinct := map[request]map[string]bool{}
	for i := range outs {
		o := &outs[i]
		a.attempted++
		if o.err != nil {
			a.fail("served %s: %v", o.req.q, o.err)
			continue
		}
		h, ok := hashOf[o.res]
		if !ok {
			var err error
			if h, err = answerHash(o.res.Answer); err != nil {
				a.fail("served %s: hash: %v", o.req.q, err)
				continue
			}
			hashOf[o.res] = h
		}
		if distinct[o.req] == nil {
			distinct[o.req] = map[string]bool{}
		}
		distinct[o.req][h] = true
		if len(distinct[o.req]) > maxDistinct {
			a.fail("served %s: %d distinct answers for one key, at most %d classes or epochs", o.req.q, len(distinct[o.req]), maxDistinct)
		}
	}
	// Reference check: the first keys seen, at most 32 (a hot key under
	// Zipf is seen first with high probability, so the sample is the keys
	// that matter most).
	checked := 0
	for i := range outs {
		if checked >= 32 || len(refs) == 0 {
			break
		}
		req := outs[i].req
		seen, ok := distinct[req]
		if !ok {
			continue
		}
		delete(distinct, req)
		checked++
		allowed := map[string]bool{}
		for _, m := range refs {
			if !m.eng.Supports(req.q) {
				continue
			}
			res, err := m.eng.Run(context.Background(), req.q, req.p)
			if err != nil {
				a.fail("reference %s %s: %v", m.Key, req.q, err)
				continue
			}
			if h, err := answerHash(res.Answer); err == nil {
				allowed[h] = true
			}
		}
		for h := range seen {
			if !allowed[h] {
				a.fail("served %s: answer %s matches no class reference", req.q, h[:12])
			}
		}
	}
}

// calmHalf pools the latencies of the calmer half of a rate's windows, the
// ones with the lower mean latency. A neighbour on the shared host slows
// whole windows at a time and only ever slows them, so the calmer half is the
// system's own behaviour; pooling it gives the percentiles five windows of
// samples instead of one.
func calmHalf(ws []windowStats) []float64 {
	var sorted []windowStats
	for _, w := range ws {
		if len(w.lat) > 0 { // a window no arrival fell into says nothing
			sorted = append(sorted, w)
		}
	}
	mean := func(w windowStats) float64 { return sum(w.lat) / float64(len(w.lat)) }
	sort.Slice(sorted, func(i, j int) bool { return mean(sorted[i]) < mean(sorted[j]) })
	var pooled []float64
	for _, w := range sorted[:(len(sorted)+1)/2] {
		pooled = append(pooled, w.lat...)
	}
	return pooled
}

// classRefs picks the cheapest member of each answer class as its reference.
func classRefs(members []*member) []*member {
	var refs []*member
	seen := map[string]bool{}
	for _, m := range members {
		if !seen[m.Class] {
			seen[m.Class] = true
			refs = append(refs, m)
		}
	}
	return refs
}

// fleetRounds is how many rounds serve-fleet's measuring time is cut into.
// Every round holds a closed-loop slice and an open-loop window, every third
// also a pass over the cells: each metric is sampled across the whole run, so
// a neighbour's slow seconds on the shared host cost it some samples and not
// the measurement.
const fleetRounds = 12

// serveFleet runs the serve-fleet workload's own phases on a set-up fleet: the
// write burst, then rounds of a pass over the cells (unloaded), a closed-loop
// slice with nproc clients (capacity), an open-loop window of seeded Poisson
// arrivals, one reopen of the burst's store and one set-up on the side.
// Untraced every window runs at the lowest rate (the gated one); the traced
// run walks the three-rate ladder.
func serveFleet(ctx context.Context, e *env, o options, ct *cellTrace, out *result) error {
	clients := o.procs
	ks := e.keys
	slice, window := o.share(0.0175), o.share(0.0375)
	rates := []float64{rateLowQPS}
	if o.trace {
		rates = []float64{rateLowQPS, rateMidQPS, rateHighQPS}
	}
	rec, err := writeBurst(e, o)
	if err != nil {
		return err
	}
	before := e.router.RouterStats()
	// o.minPasses passes over the cells, evenly spaced over the rounds.
	passEvery := fleetRounds / min(o.minPasses, fleetRounds)

	var capacity []float64
	var closed windowStats
	byRate := map[float64][]windowStats{}
	var all []outcome
	for r := 0; r < fleetRounds; r++ {
		if r%passEvery == 0 {
			e.cellPass(ctx, ct)
		}
		// Closed loop: every client walks a fresh slice of its own stream.
		streams := make([][]request, clients)
		for c := range streams {
			streams[c] = ks.stream(o.seed, uint64(1000+r*clients+c), 2048)
		}
		outs, elapsed := closedLoop(ctx, e.router, streams, slice, o.trace)
		var refs []*member
		if r == 0 {
			refs = classRefs(e.members)
		}
		auditServed(outs, 3, refs, e.audit)
		capacity = append(capacity, float64(len(outs))/elapsed.Seconds())
		closed.merge(reduceWindow(outs, elapsed, 0))
		all = append(all, outs...)

		// Open loop: this round's own stretch of the arrival process.
		rate := rates[r%len(rates)]
		sched := poissonSchedule(o.seed, uint64(r), rate*o.rateScale, window)
		outs, backlog := openLoop(ctx, e.router, ks.stream(o.seed, uint64(2000+r), len(sched)), sched, clients, o.trace)
		auditServed(outs, 3, nil, e.audit)
		byRate[rate] = append(byRate[rate], reduceWindow(outs, window, backlog))
		all = append(all, outs...)

		rec.reopen(e.audit)
		if err := e.sampleSetUp(ctx, o); err != nil {
			return err
		}
	}
	e.cellMetrics(ct, out)
	rec.st.metrics(e.ds.Dims.Genes, out)
	// Interference only lowers a rate: the upper quartile over the slices.
	out.set("serve_capacity_qps", quantile(capacity, 0.75), closed.n)
	gated := byRate[rateLowQPS]
	calm := calmHalf(gated)
	out.set("serve_p50_ms", quantile(calm, 0.50), len(calm))
	out.set("serve_p95_ms", quantile(calm, 0.95), len(calm))

	// Per-layer, from the same rounds. Across the windows of a rate they
	// report the lower quartile: a neighbour slows whole windows at a time,
	// and only ever slows them, and a minimum would pick the window the
	// arrival process happened to treat best.
	lq := func(ws []windowStats, f func(windowStats) float64) float64 {
		xs := make([]float64, len(ws))
		for i, w := range ws {
			xs[i] = f(w)
		}
		return quantile(xs, 0.25)
	}
	after := e.router.RouterStats()
	total := closed
	nGated := 0
	for rate, ws := range byRate {
		for _, w := range ws {
			total.merge(w)
			if rate == rateLowQPS {
				nGated += w.n
			}
		}
	}
	served := total.n - total.failed
	out.set("serve.queue_wait_p95_ms", lq(gated, func(w windowStats) float64 { return w.queueWaitP95 }), nGated)
	out.set("serve.service_p50_ms", median(total.serviceMs), len(total.serviceMs))
	out.set("serve.hit_us", median(total.hitUs), len(total.hitUs))
	out.set("serve.cache_hit_ratio", ratio(float64(total.hits), float64(served)), served)
	out.set("serve.route_overhead_us", median(total.routeOverheadUs), len(total.routeOverheadUs))
	out.set("serve.rerouted", float64(after.Rerouted-before.Rerouted), served)
	out.set("serve.shed", float64(after.Shed-before.Shed), served)
	out.set("serve.deadlined", float64(after.Deadlined-before.Deadlined), served)
	used := 0
	for i, sh := range after.Shares {
		n := sh.Served - before.Shares[i].Served
		if n > 0 {
			used++
		}
		out.detail = append(out.detail, map[string]any{"row": "backend_share", "backend": sh.Key, "class": sh.Class, "served": n})
	}
	out.set("serve.backends_used", float64(used), served)
	out.set("serve.p99_ms", lq(gated, func(w windowStats) float64 { return w.p99 }), nGated)
	out.set("serve.gen_late_p99_ms", lq(gated, func(w windowStats) float64 { return w.genLateP99 }), nGated)
	out.set("serve.backlog_end", lq(gated, func(w windowStats) float64 { return float64(w.backlog) }), nGated)
	// The ladder: p95 at the middle and high rates, and the highest rate whose
	// lower-quartile window met the limit with no failure and no backlog left
	// — a three-step value, so per-layer only.
	maxOK := 0.0
	for _, rate := range rates {
		ws := byRate[rate]
		failed := 0
		for _, w := range ws {
			failed += w.failed
		}
		p95 := lq(ws, func(w windowStats) float64 { return w.p95 })
		if failed == 0 && p95 <= latencyLimitMs && lq(ws, func(w windowStats) float64 { return float64(w.backlog) }) <= 1 {
			maxOK = rate
		}
		out.detail = append(out.detail, map[string]any{"row": "rate", "rate_qps": rate, "windows": len(ws),
			"p50_ms": lq(ws, func(w windowStats) float64 { return w.p50 }), "p95_ms": p95, "failed": failed})
	}
	out.set("serve.p95_ms.mid", lq(byRate[rateMidQPS], func(w windowStats) float64 { return w.p95 }), len(byRate[rateMidQPS]))
	out.set("serve.p95_ms.high", lq(byRate[rateHighQPS], func(w windowStats) float64 { return w.p95 }), len(byRate[rateHighQPS]))
	out.set("serve.max_ok_rate_qps", maxOK, len(rates))
	if o.trace {
		e.rec.serveSpans(all)
	}
	return nil
}

// serveSpans files served requests as spans: request (scheduled → done) with
// children serve.queue (scheduled → dequeued) and serve.run (dequeued →
// done), and engine.run under serve.run when a backend executed. Window
// offsets restart per window, so the spans carry durations faithfully and
// starts relative to their own window.
func (r *recorder) serveSpans(outs []outcome) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range outs {
		o := &outs[i]
		if o.err != nil {
			continue
		}
		req := r.next.Add(1)
		r.all = append(r.all,
			span{Req: req, ID: 0, Parent: -1, Name: "request", Label: "served/" + o.req.q.String(), StartNs: o.sched.Nanoseconds(), DurNs: (o.done - o.sched).Nanoseconds()},
			span{Req: req, ID: 1, Parent: 0, Name: "serve.queue", StartNs: o.sched.Nanoseconds(), DurNs: (o.dequeued - o.sched).Nanoseconds()},
			span{Req: req, ID: 2, Parent: 0, Name: "serve.run", StartNs: o.dequeued.Nanoseconds(), DurNs: (o.done - o.dequeued).Nanoseconds()})
		if o.sv != nil && o.sv.engineNs > 0 {
			r.all = append(r.all, span{Req: req, ID: 3, Parent: 2, Name: "engine.run", Label: o.sv.backend, StartNs: o.dequeued.Nanoseconds(), DurNs: o.sv.engineNs})
		}
	}
}
