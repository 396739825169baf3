// Package mapreduce implements the Hadoop configuration: a real (in-process)
// MapReduce framework with map, combine, partition, shuffle and reduce phases,
// plus the Hive-style relational jobs and Mahout-style matrix jobs GenBase
// needs. Records are text — input lines, "key\tvalue\n" shuffle records,
// "key\tvalue" reducer output — so every stage pays parse/format costs, and
// no high-performance linear algebra library is involved. That is the
// architecture whose cost the paper measures ("Hadoop is good at neither
// data management nor analytics").
//
// The runtime moves those records the way Hadoop does. Each (mapper, reducer)
// bucket is a run: byte arenas holding its records back to back — the spill
// file, whose length is the bucket's shuffle traffic — each with an index of
// {offset, key length, value length} refs; no record is a heap object. A run
// is stably sorted by key on the map side, and not at all when its keys were
// emitted in ascending order (tracked while emitting; true of every
// Mahout-style job and of the join). The combiner runs over the sorted run. A
// reducer merges its mappers' runs k ways, equal keys in mapper order and
// then emission order — the sequence the replaced "concatenate the buckets,
// stable-sort" gave, so a reducer that sums partials adds them in the same
// order and every float is bit-identical (framework_ref_test.go keeps that
// runtime as the reference) — and streams each key group to Reduce through
// one reused values buffer. The Mahout-style jobs shuffle one record per
// gram row or partial vector (mahout.go), so a record may carry hundreds of
// floats: tasks poll their context by records and by bytes of record text.
//
// Still paid on purpose: floats cross every hop as shortest-round-trip
// decimal text, a job's whole map output is materialised before any reducer
// starts, and every matrix step — each Lanczos iteration — is its own job.
package mapreduce

import (
	"bytes"
	"context"
	"fmt"
	"slices"

	"github.com/genbase/genbase/internal/engine"
	"github.com/genbase/genbase/internal/parallel"
)

// Job describes one MapReduce job. Input is pre-split; each split is a slice
// of text lines (an HDFS block). Combine is optional. The key and values
// handed to Combine and Reduce alias the shuffle buffers: they are valid
// until the call returns.
type Job struct {
	Name  string
	Input [][]string
	// Map processes one line. Exactly one of Map and MapSplit must be set.
	Map func(line string, out *Emitter) error
	// MapSplit processes a whole split at once — the in-mapper-combining
	// pattern Mahout uses for partial matrix aggregates.
	MapSplit    func(split []string, out *Emitter) error
	Combine     func(key []byte, values [][]byte, out *Emitter) error
	Reduce      func(key []byte, values [][]byte, out *Emitter) error
	NumReducers int
}

// TaskScheduler places map and reduce waves. The local scheduler runs tasks
// sequentially; the virtual cluster scheduler (internal/cluster) spreads
// them over simulated nodes and charges shuffle traffic to the network.
type TaskScheduler interface {
	// RunWave executes n independent tasks of one phase.
	RunWave(ctx context.Context, phase string, n int, task func(i int) error) error
	// ShuffleCost is informed of the map→reduce traffic matrix in bytes.
	ShuffleCost(bytes [][]int64)
}

// LocalScheduler runs waves on the local node (single-node Hadoop), fanning
// the wave's tasks across the shared worker pool — a node runs as many
// map/reduce slots as it has cores. Tasks of one wave write disjoint outputs,
// so the fan-out cannot change results. Workers is the slot count (0 = the
// GENBASE_PARALLEL / NumCPU default).
type LocalScheduler struct{ Workers int }

// RunWave implements TaskScheduler. On error the first failing task (by
// index) wins, mirroring the sequential scheduler.
func (s LocalScheduler) RunWave(ctx context.Context, _ string, n int, task func(i int) error) error {
	errs := make([]error, n)
	parallel.For(s.Workers, n, func(i int) {
		if err := engine.CheckCtx(ctx); err != nil {
			errs[i] = err
			return
		}
		errs[i] = task(i)
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// ShuffleCost implements TaskScheduler (free on a single node).
func (LocalScheduler) ShuffleCost([][]int64) {}

// ref locates one record in its segment's text.
type ref struct{ off, klen, vlen uint32 }

// segment is a stretch of a run: records as "key\tvalue\n" text back to
// back — a piece of the spill file — and their index.
type segment struct {
	text []byte
	refs []ref
}

func (s *segment) key(i int) []byte {
	f := s.refs[i]
	return s.text[f.off:][:f.klen]
}

func (s *segment) value(i int) []byte {
	f := s.refs[i]
	return s.text[f.off+f.klen+1:][:f.vlen]
}

// run is one bucket of task output. It grows by whole segments, each twice
// the last up to maxSegment, so filling it never moves a record and a large
// run over-allocates by under a segment.
type run struct {
	segs      []segment
	last      []byte // the latest key
	records   int
	bytes     int64 // of text: what the run costs to shuffle
	unordered bool  // some key was emitted below its predecessor
}

const minSegment, maxSegment = 1 << 10, 1 << 18

func (r *run) add(key, value []byte) {
	if !r.unordered && bytes.Compare(r.last, key) > 0 {
		r.unordered = true
	}
	need := len(key) + len(value) + 2
	n := len(r.segs)
	if n == 0 || cap(r.segs[n-1].text)-len(r.segs[n-1].text) < need {
		size, recSize := minSegment, 32
		if r.records > 0 {
			size, recSize = min(2*cap(r.segs[n-1].text), maxSegment), int(r.bytes)/r.records
		}
		size = max(size, need)
		r.segs = append(r.segs, segment{make([]byte, 0, size), make([]ref, 0, size/recSize+1)})
		n++
	}
	s := &r.segs[n-1]
	s.refs = append(s.refs, ref{uint32(len(s.text)), uint32(len(key)), uint32(len(value))})
	s.text = append(append(append(append(s.text, key...), '\t'), value...), '\n')
	r.last = s.key(len(s.refs) - 1)
	r.records++
	r.bytes += int64(need)
}

// cursor walks a run's records in index order; it is exhausted when no
// segment is left.
type cursor struct {
	segs []segment
	i    int // within segs[0]
}

func (c *cursor) key() []byte   { return c.segs[0].key(c.i) }
func (c *cursor) value() []byte { return c.segs[0].value(c.i) }

func (c *cursor) next() {
	if c.i++; c.i == len(c.segs[0].refs) {
		c.segs, c.i = c.segs[1:], 0
	}
}

// sort rewrites an unordered run in key order, equal keys staying in emission
// order. It polls ctx every ctxStride comparisons; once
// cancelled every comparison ties, so the sort runs out without moving
// anything further.
func (r *run) sort(ctx context.Context) error {
	if !r.unordered {
		return nil
	}
	order := make([]cursor, 0, r.records)
	for c := (cursor{segs: r.segs}); len(c.segs) > 0; c.next() {
		order = append(order, c)
	}
	var n int
	var err error
	slices.SortStableFunc(order, func(a, b cursor) int {
		if n++; n%ctxStride == 0 && err == nil {
			err = engine.CheckCtx(ctx)
		}
		if err != nil {
			return 0
		}
		return bytes.Compare(a.key(), b.key())
	})
	if err != nil {
		return err
	}
	var sorted run
	for _, c := range order {
		sorted.add(c.key(), c.value())
	}
	*r = sorted
	return nil
}

// lines returns the records as "key\tvalue" strings in index order, each a
// substring of one copy of its segment's text.
func (r *run) lines() []string {
	lines := make([]string, 0, r.records)
	for _, s := range r.segs {
		text := string(s.text)
		for _, f := range s.refs {
			lines = append(lines, text[f.off:f.off+f.klen+1+f.vlen])
		}
	}
	return lines
}

// A task polls its context after every ctxStride records it emits or merges,
// or ctxBytes of their text, whichever comes first — a row-vector record can
// carry hundreds of floats — and after every ctxStride comparisons of a sort.
const ctxStride, ctxBytes = 1024, 64 << 10

// Emitter collects the records one map, combine or reduce task emits: one run
// per reducer for a mapper, a single run otherwise.
type Emitter struct {
	ctx  context.Context
	runs []run
	n    int   // records since the last poll
	text int   // bytes of record text since the last poll
	err  error // ctx's error once a poll saw it; later records are dropped
}

// Emit appends one record, copying key and value.
func (e *Emitter) Emit(key, value []byte) {
	e.n, e.text = e.n+1, e.text+len(key)+len(value)+2
	if (e.n == ctxStride || e.text >= ctxBytes) && e.err == nil {
		e.n, e.text = 0, 0
		e.err = engine.CheckCtx(e.ctx)
	}
	if e.err != nil {
		return
	}
	p := 0
	if len(e.runs) > 1 {
		p = partition(key, len(e.runs))
	}
	e.runs[p].add(key, value)
}

// partition is 32-bit FNV-1a of the key, modulo the reducer count.
func partition(key []byte, r int) int {
	h := uint32(2166136261)
	for _, c := range key {
		h = (h ^ uint32(c)) * 16777619
	}
	return int(h % uint32(r))
}

// Run executes the job and returns each reducer's output lines
// ("key\tvalue"), reducers in index order. The scheduler defaults to local
// execution when nil.
func Run(ctx context.Context, job *Job, sched TaskScheduler) ([][]string, error) {
	if sched == nil {
		sched = LocalScheduler{}
	}
	r := job.NumReducers
	if r <= 0 {
		r = 1
	}
	nMappers := len(job.Input)
	if nMappers == 0 {
		return make([][]string, r), nil
	}

	mapOut := make([][]run, nMappers) // [mapper][reducer]
	err := sched.RunWave(ctx, job.Name+":map", nMappers, func(m int) (err error) {
		mapOut[m], err = job.mapTask(ctx, job.Input[m], r)
		return err
	})
	if err != nil {
		return nil, err
	}

	// Report shuffle traffic: a run's text is what crosses from its mapper
	// to its reducer.
	traffic := make([][]int64, nMappers)
	for m := range traffic {
		traffic[m] = make([]int64, r)
		for p := range traffic[m] {
			traffic[m][p] = mapOut[m][p].bytes
		}
	}
	sched.ShuffleCost(traffic)

	out := make([][]string, r)
	err = sched.RunWave(ctx, job.Name+":reduce", r, func(p int) error {
		runs := make([]*run, nMappers)
		for m := range runs {
			runs[m] = &mapOut[m][p]
		}
		res := &Emitter{ctx: ctx, runs: make([]run, 1)}
		if err := merge(runs, job.Reduce, res); err != nil {
			return fmt.Errorf("mapreduce: %s reduce: %w", job.Name, err)
		}
		out[p] = res.runs[0].lines()
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// mapTask runs one mapper over its split and returns its r sorted (and, with
// a combiner, combined) runs.
func (job *Job) mapTask(ctx context.Context, split []string, r int) ([]run, error) {
	out := &Emitter{ctx: ctx, runs: make([]run, r)}
	switch {
	case job.MapSplit != nil:
		if err := job.MapSplit(split, out); err != nil {
			return nil, fmt.Errorf("mapreduce: %s mapsplit: %w", job.Name, err)
		}
	case job.Map != nil:
		for ln, line := range split {
			if ln%ctxStride == 0 {
				if err := engine.CheckCtx(ctx); err != nil {
					return nil, err
				}
			}
			if err := job.Map(line, out); err != nil {
				return nil, fmt.Errorf("mapreduce: %s map: %w", job.Name, err)
			}
			if out.err != nil {
				break // an emit saw the cancellation
			}
		}
	default:
		return nil, fmt.Errorf("mapreduce: %s has no map function", job.Name)
	}
	if out.err != nil {
		return nil, out.err
	}
	for p := range out.runs {
		spill := &out.runs[p]
		if err := spill.sort(ctx); err != nil {
			return nil, err
		}
		if job.Combine == nil || spill.records == 0 {
			continue
		}
		combined := &Emitter{ctx: ctx, runs: make([]run, 1)}
		if err := merge([]*run{spill}, job.Combine, combined); err != nil {
			return nil, fmt.Errorf("mapreduce: %s combine: %w", job.Name, err)
		}
		*spill = combined.runs[0]
		if err := spill.sort(ctx); err != nil {
			return nil, err
		}
	}
	return out.runs, nil
}

// merge walks the sorted runs' key groups in key order and hands each to fn
// with its values in run order, then index order within a run, polling out's
// context every ctxStride values or ctxBytes of value text. The smallest
// head key is found by scanning the runs — linear in their number per group,
// which suits jobs whose mappers are few (two per node) and whose keys recur
// in every run.
func merge(runs []*run, fn func(key []byte, values [][]byte, out *Emitter) error, out *Emitter) error {
	heads := make([]cursor, len(runs))
	for m, r := range runs {
		heads[m].segs = r.segs
	}
	var values [][]byte
	for merged, text := 0, 0; ; {
		first := -1
		for m := range heads {
			if len(heads[m].segs) > 0 && (first < 0 || bytes.Compare(heads[m].key(), heads[first].key()) < 0) {
				first = m
			}
		}
		if first < 0 {
			return out.err
		}
		key := heads[first].key()
		values = values[:0]
		for m := first; m < len(heads); m++ {
			for h := &heads[m]; len(h.segs) > 0 && bytes.Equal(h.key(), key); h.next() {
				values = append(values, h.value())
				text += len(values[len(values)-1])
			}
		}
		if merged += len(values); merged >= ctxStride || text >= ctxBytes {
			merged, text = 0, 0
			if err := engine.CheckCtx(out.ctx); err != nil {
				return err
			}
		}
		if err := fn(key, values, out); err != nil {
			return err
		}
		if out.err != nil {
			return out.err
		}
	}
}

// SplitLines divides lines into n roughly equal contiguous splits.
func SplitLines(lines []string, n int) [][]string {
	if n < 1 {
		n = 1
	}
	if n > len(lines) && len(lines) > 0 {
		n = len(lines)
	}
	out := make([][]string, 0, n)
	if len(lines) == 0 {
		return [][]string{nil}
	}
	per := (len(lines) + n - 1) / n
	for i := 0; i < len(lines); i += per {
		end := i + per
		if end > len(lines) {
			end = len(lines)
		}
		out = append(out, lines[i:end])
	}
	return out
}
