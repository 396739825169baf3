package main

import (
	"context"
	"math"
	"math/rand/v2"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/genbase/genbase/internal/datagen"
	"github.com/genbase/genbase/internal/engine"
	"github.com/genbase/genbase/internal/serve"
)

// request is one served query.
type request struct {
	q engine.QueryID
	p engine.Params
}

// keyspace is the benchmark's own traffic model: per query a list of valid
// parameterisations of this seed's dataset, drawn by a seeded Zipf so that
// some keys repeat (result cache, single-flight) and most do not. Validity
// is decided from the dataset's metadata, so no generated request can trip
// a plan guard (empty selection, underdetermined regression).
type keyspace struct {
	variants map[engine.QueryID][]engine.Params
	queries  []engine.QueryID
	cdfs     map[int][]float64 // Zipf CDF by variant count
}

// zipfExponent skews the key popularity; with keysPerQuery it sets the
// result-cache hit ratio (see README.md, "Frozen constants").
const zipfExponent = 0.8

// newKeyspace builds up to perQuery parameterisations for each query. usable
// reports whether a Q3 patient filter yields biclusters (decided by running
// it once on a loaded engine — Cheng–Church can reject a whole sub-matrix,
// which metadata alone cannot predict).
func newKeyspace(ds *datagen.Dataset, base engine.Params, perQuery int, thrLo int64, usableQ3 func(p engine.Params) bool) *keyspace {
	genesBelow := func(thr int64) int {
		n := 0
		for _, g := range ds.Genes {
			if int64(g.Function) < thr {
				n++
			}
		}
		return n
	}
	cohort := map[int64]int{}
	for _, pt := range ds.Patients {
		cohort[int64(pt.DiseaseID)]++
	}
	var diseases []int64
	for d := int64(1); d <= datagen.NumDiseases; d++ {
		if cohort[d] >= 4 {
			diseases = append(diseases, d)
		}
	}
	ks := &keyspace{variants: map[engine.QueryID][]engine.Params{}, queries: engine.AllScenarios(), cdfs: map[int][]float64{}}
	add := func(q engine.QueryID, p engine.Params) { ks.variants[q] = append(ks.variants[q], p) }

	// Q1/Q4: the gene predicate; a threshold is kept when it selects >= 2
	// genes and leaves the regression determined (genes + 1 <= patients).
	for v := 0; v < perQuery; v++ {
		thr := thrLo + int64(v)
		if g := genesBelow(thr); g < 2 || g+2 > ds.Dims.Patients {
			continue
		}
		p := base
		p.FunctionThreshold = thr
		add(engine.Q1Regression, p)
		p.SVDK = 3 + v%6
		add(engine.Q4SVD, p)
	}
	// Q2: cohort × top-pair fraction.
	for v := 0; v < perQuery && len(diseases) > 0; v++ {
		p := base
		p.DiseaseID = diseases[v%len(diseases)]
		p.CovarianceTopFrac = 0.05 + 0.001*float64(v/len(diseases))
		add(engine.Q2Covariance, p)
	}
	// Q3: patient filter × masking seed.
	var filters []engine.Params
	for age := int64(30); age < 70; age++ {
		for _, g := range []byte{'M', 'F'} {
			p := base
			p.Gender, p.MaxAge = g, age
			if usableQ3(p) {
				filters = append(filters, p)
			}
		}
	}
	for v := 0; v < perQuery && len(filters) > 0; v++ {
		p := filters[v%len(filters)]
		p.Seed = uint64(1 + v/len(filters))
		add(engine.Q3Biclustering, p)
	}
	// Q5 reads only the sampling step, so its keys are the distinct steps.
	for step := 3; step < 3+min(perQuery, 60) && step <= ds.Dims.Patients/4; step++ {
		p := base
		p.SampleFrac = 1 / float64(step)
		add(engine.Q5Statistics, p)
	}
	// Q6: cohort × tight gene predicate, regression determined with slack.
	for thr := int64(4); thr < 80 && len(ks.variants[engine.Q6CohortRegression]) < perQuery; thr++ {
		g := genesBelow(thr)
		for _, d := range diseases {
			if g >= 1 && g+3 <= cohort[d] {
				p := base
				p.CohortFunctionThreshold, p.DiseaseID = thr, d
				add(engine.Q6CohortRegression, p)
			}
		}
	}
	return ks
}

// zipfCDF is the cumulative popularity of n ranks under zipfExponent.
func zipfCDF(n int) []float64 {
	cdf := make([]float64, n)
	total := 0.0
	for i := range cdf {
		total += math.Pow(float64(i+1), -zipfExponent)
		cdf[i] = total
	}
	for i := range cdf {
		cdf[i] /= total
	}
	return cdf
}

// requestStrata is how finely a block of the request stream stratifies each
// query's Zipf popularity.
const requestStrata = 32

// stream pre-draws n requests, so drawing never runs on a client's clock.
// The draw is stratified: the stream is made of blocks that hold every query
// requestStrata times, each time with a parameterisation from a different
// 1/requestStrata slice of its Zipf popularity, shuffled. Queries stay
// uniform and ranks stay Zipf-distributed, but two seeds can no longer differ
// in how many expensive queries they happened to draw — with a few hundred
// reads per run, that difference was most of the spread between seeds.
func (ks *keyspace) stream(seed, salt uint64, n int) []request {
	rng := rand.New(rand.NewPCG(seed, salt))
	var out []request
	for len(out) < n {
		block := make([]request, 0, len(ks.queries)*requestStrata)
		for _, q := range ks.queries {
			vs := ks.variants[q]
			cdf, ok := ks.cdfs[len(vs)]
			if !ok {
				cdf = zipfCDF(len(vs))
				ks.cdfs[len(vs)] = cdf
			}
			for j := 0; j < requestStrata; j++ {
				u := (float64(j) + rng.Float64()) / requestStrata
				block = append(block, request{q: q, p: vs[sort.SearchFloat64s(cdf, u)]})
			}
		}
		rng.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
		out = append(out, block...)
	}
	return out[:n]
}

// outcome is one request as the client saw it. Times are offsets from the
// window start.
type outcome struct {
	req                   request
	sched, dequeued, done time.Duration
	sent                  time.Duration // open loop: when the generator actually emitted it
	hit                   bool
	res                   *engine.Result
	err                   error
	sv                    *served // traced run only
}

func (o *outcome) latency() time.Duration { return o.done - o.sched }

// issue runs one request and fills in its outcome.
func issue(ctx context.Context, r serve.Runner, o *outcome, start time.Time, traced bool) {
	if traced {
		o.sv = &served{}
		ctx = context.WithValue(ctx, servedKey{}, o.sv)
	}
	o.dequeued = time.Since(start)
	o.res, o.hit, o.err = r.Run(ctx, o.req.q, o.req.p)
	o.done = time.Since(start)
}

// closedLoop drives r with `clients` callers that each send their next
// request only after the previous answer, for about d. Each client walks
// its own pre-drawn stream. It returns the outcomes and the elapsed time to
// the last completion.
func closedLoop(ctx context.Context, r serve.Runner, streams [][]request, d time.Duration, traced bool) ([]outcome, time.Duration) {
	start := time.Now()
	per := make([][]outcome, len(streams))
	var wg sync.WaitGroup
	for c := range streams {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; time.Since(start) < d; i++ {
				o := outcome{req: streams[c][i%len(streams[c])]}
				o.sched = time.Since(start)
				issue(ctx, r, &o, start, traced)
				per[c] = append(per[c], o)
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var all []outcome
	for _, p := range per {
		all = append(all, p...)
	}
	return all, elapsed
}

// poissonSchedule is the benchmark's own arrival process: exponential gaps
// at `rate` per second from a seeded generator, for d. salt picks the stretch
// of the process (one per window).
func poissonSchedule(seed, salt uint64, rate float64, d time.Duration) []time.Duration {
	rng := rand.New(rand.NewPCG(seed, 0x6172726976616c+salt)) // "arrival"
	var out []time.Duration
	at := time.Duration(0)
	for {
		at += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if at >= d {
			return out
		}
		out = append(out, at)
	}
}

// errQueueFull marks an arrival that would have found one second of
// arrivals already waiting: counted as a failed request, never silently
// dropped.
type errQueueFull struct{}

func (errQueueFull) Error() string { return "benchmark: arrival queue full" }

// maxQueueWait bounds the open loop's waiting queue at one second of
// arrivals: a request still unclaimed a second after it was due would have
// found that queue full.
const maxQueueWait = time.Second

// openLoop sends reqs[i] at sched[i] regardless of how fast r answers.
// There is no generator goroutine to be starved by busy clients: the
// `clients` workers claim arrivals in schedule order, a worker that is ahead
// of the schedule sleeps until its arrival is due, and a worker that is
// behind starts at once — which is exactly a FIFO queue in front of
// `clients` servers. Latency runs from the scheduled arrival, so the wait a
// stall imposes on later arrivals is counted. backlog is the number of
// arrivals due inside the window but claimed after its last arrival.
func openLoop(ctx context.Context, r serve.Runner, reqs []request, sched []time.Duration, clients int, traced bool) (outs []outcome, backlog int) {
	outs = make([]outcome, len(sched))
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(sched) {
					return
				}
				o := &outs[i]
				o.req, o.sched, o.sent = reqs[i%len(reqs)], sched[i], sched[i]
				if wait := o.sched - time.Since(start); wait > 0 {
					time.Sleep(wait)
					o.sent = time.Since(start) // how late the timer woke us
				}
				if now := time.Since(start); now-o.sched > maxQueueWait {
					o.dequeued, o.done, o.err = now, now, errQueueFull{}
					continue
				}
				issue(ctx, r, o, start, traced)
			}
		}()
	}
	wg.Wait()
	for i := range outs {
		if outs[i].dequeued > sched[len(sched)-1] {
			backlog++
		}
	}
	return outs, backlog
}

// latencies returns the latency in ms of every outcome; a failed request
// counts as exceeding any limit, so it is filed above the slowest success.
func latencies(outs []outcome, window time.Duration) []float64 {
	lat := make([]float64, 0, len(outs))
	worst := ms(window)
	for i := range outs {
		if outs[i].err == nil {
			worst = math.Max(worst, ms(outs[i].latency()))
		}
	}
	for i := range outs {
		if outs[i].err != nil {
			lat = append(lat, 2*worst)
		} else {
			lat = append(lat, ms(outs[i].latency()))
		}
	}
	return lat
}
