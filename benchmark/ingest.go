package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/genbase/genbase/internal/datagen"
	"github.com/genbase/genbase/internal/engine"
	"github.com/genbase/genbase/internal/serve"
	"github.com/genbase/genbase/internal/wal"
)

// Frozen ingest-serve constants (README.md, "Frozen constants").
const (
	// Phase A appends phaseARows rows flat out in chunks of chunkRows, each
	// closed by a checkpoint: the base the reads of phase B run over. The three
	// read workloads run a shorter phase A (burstRows) as their write burst.
	phaseARows = 10000
	burstRows  = 4000
	chunkRows  = 500
	// Phase B paces one appender at ingestRowRate, with a checkpoint and an
	// epoch swap every checkpointEvery rows, beside one reader at readRateQPS
	// (~11% of the final epoch's single-client capacity). It adds a quarter to
	// the dataset, so a read costs about the same early and late in the phase
	// and what moves its latency is the write side's background work.
	checkpointEvery = 250
	ingestRowRate   = 200.0
	readRateQPS     = 100.0
	// The reader's keys: few and with tight gene predicates (function codes
	// from ingestThresholdLo up). The dataset grows ~50x in patients during
	// the run; a wide regression over it would cost hundreds of ms and hide
	// the checkpoint and swap stalls this workload exists to show.
	ingestKeysPerQuery = 256
	ingestThresholdLo  = 20
	// ingestRounds is how many rounds the final epoch is measured in (and how
	// often phase C reopens the store).
	ingestRounds = 12
)

// ingestReadQueries is what ingest-serve's reader asks: the three queries
// whose cost stays in single milliseconds while the dataset grows from 250 to
// 13 000 patients (a cohort covariance, the sampled statistics, the cohort
// regression). Q1, Q3 and Q4 grow to 20–250 ms there; with them in the mix
// the reader's p95 is the price of the heaviest query at the latest epoch,
// and says nothing about checkpoints and swaps. The cells run all six.
var ingestReadQueries = []engine.QueryID{engine.Q2Covariance, engine.Q5Statistics, engine.Q6CohortRegression}

// ingestStats is the raw record of the write path's phases.
type ingestStats struct {
	rowsA        int
	chunkRate    []float64 // phase A rows/s of each chunk, its checkpoint included
	appendMs     []float64 // durable-ack latency of every Append
	checkpointMs []float64
	snapshotMs   []float64
	reloadMs     []float64
	swapMs       []float64 // checkpoint start → Swap returned
	recoveryMs   []float64 // wal.Open wall
	replayMs     []float64 // Store.Recovery().Replay
	rows         int       // every row appended, all phases
	logBytes     int64
	heapBytes    int64
	poolHits     int64
	poolMisses   int64
}

// genRows draws n rows before any clock starts.
func genRows(gen *wal.RowGen, n int) []wal.Row {
	rows := make([]wal.Row, n)
	for i := range rows {
		rows[i] = gen.Next()
	}
	return rows
}

// appendFlatOut is phase A: `appenders` goroutines append rows closed-loop,
// with a checkpoint after every `every` rows (appenders quiesce for it, as
// the fold excludes them anyway). Each chunk's rate counts its checkpoint.
func appendFlatOut(store *wal.Store, rows []wal.Row, every, appenders int, st *ingestStats, a *audit) {
	lat := make([][]float64, appenders)
	errs := make([]error, appenders)
	for lo := 0; lo < len(rows); lo += every {
		chunk := rows[lo:min(lo+every, len(rows))]
		start := time.Now()
		var wg sync.WaitGroup
		for w := 0; w < appenders; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(chunk); i += appenders {
					t0 := time.Now()
					if err := store.Append(chunk[i]); err != nil && errs[w] == nil {
						errs[w] = err
					}
					lat[w] = append(lat[w], ms(time.Since(t0)))
				}
			}(w)
		}
		wg.Wait()
		t0 := time.Now()
		_, err := store.Checkpoint()
		st.checkpointMs = append(st.checkpointMs, ms(time.Since(t0)))
		a.op("checkpoint", err)
		st.chunkRate = append(st.chunkRate, float64(len(chunk))/time.Since(start).Seconds())
	}
	st.rowsA = len(rows)
	st.rows += len(rows)
	for w := range lat {
		st.appendMs = append(st.appendMs, lat[w]...)
		a.attempted += len(lat[w])
		if errs[w] != nil {
			a.fail("append: %v", errs[w])
		}
	}
}

// fileSize is the size of dir/name, 0 if it cannot be read.
func fileSize(dir, name string) int64 {
	fi, err := os.Stat(filepath.Join(dir, name))
	if err != nil {
		return 0
	}
	return fi.Size()
}

// recovery is a closed store's directory: phase C reopens it again and again.
// The reopens are not made back to back but one after each pass or round of
// whatever the workload measures next, so that they sample the whole run: a
// neighbour on the shared host slows everything for seconds at a time, and
// seven reopens inside one such stretch have no fast one among them.
type recovery struct {
	dir      string
	base     *datagen.Dataset
	liveHash string
	st       *ingestStats
}

// closeStore ends a store's life: it records the final sizes and the live
// snapshot's hash, and closes it.
func closeStore(store *wal.Store, dir string, base *datagen.Dataset, st *ingestStats, a *audit) *recovery {
	r := &recovery{dir: dir, base: base, st: st}
	snap, err := store.Snapshot()
	a.op("live snapshot", err)
	if err == nil {
		r.liveHash = snap.Hash()
	}
	ps := store.ServePoolStats()
	st.poolHits, st.poolMisses = ps.Hits, ps.Misses
	a.op("close store", store.Close())
	st.logBytes, st.heapBytes = fileSize(dir, "wal.log"), fileSize(dir, "segments.heap")
	return r
}

// reopen is one wal.Open of the closed store's directory, timed. The first
// reopened store's snapshot must hash equal to the live store's.
func (r *recovery) reopen(a *audit) {
	t0 := time.Now()
	s, err := wal.Open(r.dir, r.base)
	first := len(r.st.recoveryMs) == 0
	r.st.recoveryMs = append(r.st.recoveryMs, ms(time.Since(t0)))
	a.op("reopen", err)
	if err != nil {
		return
	}
	r.st.replayMs = append(r.st.replayMs, ms(s.Recovery().Replay))
	if first {
		snap, err := s.Snapshot()
		a.op("recovered snapshot", err)
		if err == nil && snap.Hash() != r.liveHash {
			a.fail("recovered snapshot hash differs from the live store's")
		}
	}
	if err := s.Close(); err != nil {
		a.fail("close reopened store: %v", err)
	}
}

// userBytes is what a row carries for its user: the patient tuple (four
// int32, gender, drug response) and one float64 per gene. An exact count.
func userBytes(genes int) int64 { return int64(4*4 + 1 + 8 + 8*genes) }

// metrics reports the write path: recovery_ms end to end, and the wal.*
// layer metrics.
func (st *ingestStats) metrics(genes int, out *result) {
	out.set("recovery_ms", fastest(st.recoveryMs), len(st.recoveryMs))
	// Upper quartile over the chunks: interference only lowers a rate.
	out.set("wal.ingest_rows_per_s", quantile(st.chunkRate, 0.75), st.rowsA)
	out.set("wal.checkpoint_p50_ms", median(st.checkpointMs), len(st.checkpointMs))
	out.set("wal.append_p50_ms", median(st.appendMs), len(st.appendMs))
	out.set("wal.append_p95_ms", quantile(st.appendMs, 0.95), len(st.appendMs))
	out.set("wal.bytes_per_row", ratio(float64(st.logBytes), float64(st.rows)), st.rows)
	out.set("wal.write_amp", ratio(float64(st.logBytes+st.heapBytes), float64(int64(st.rows)*userBytes(genes))), st.rows)
	out.set("wal.checkpoint_max_ms", maxOf(st.checkpointMs), len(st.checkpointMs))
	out.set("wal.snapshot_ms", median(st.snapshotMs), len(st.snapshotMs))
	out.set("wal.engine_reload_ms", median(st.reloadMs), len(st.reloadMs))
	out.set("wal.swap_visible_ms", median(st.swapMs), len(st.swapMs))
	out.set("wal.recovery_replay_ms", median(st.replayMs), len(st.replayMs))
	out.set("wal.segment_pool_hit_ratio", ratio(float64(st.poolHits), float64(st.poolHits+st.poolMisses)), int(st.poolHits+st.poolMisses))
}

// writeBurst is the write path as the three read workloads see it: phase A
// over the workload's own dataset, nothing reading beside it, then the store
// closed for the caller to reopen between its passes or rounds (phase C).
// The contract wants every end-to-end metric on every workload; this is the
// cheapest honest way to give the write-path metrics a value there, and it
// adds the medium preset's three-times-wider rows as a data point.
func writeBurst(e *env, o options) (*recovery, error) {
	dir, err := os.MkdirTemp(e.scratch, "wal-*")
	if err != nil {
		return nil, err
	}
	store, err := wal.Open(dir, e.ds)
	if err != nil {
		return nil, err
	}
	rows := genRows(wal.NewRowGen(e.ds, o.seed), o.scale(burstRows))
	st := &ingestStats{}
	appendFlatOut(store, rows, o.scale(chunkRows), o.procs, st, e.audit)
	return closeStore(store, dir, e.ds, st, e.audit), nil
}

// ackSample is one observation of the durability check: after the ack of
// row number `rows`, wal.log was `size` bytes long.
type ackSample struct {
	rows int
	size int64
}

// ingestServe runs the ingest-serve workload's own phases: A (flat-out
// appends), B (paced appends with epoch swaps beside open-loop reads), the
// final epoch's closed-loop capacity and cells with C (the reopens) between
// them, and the durability check.
func ingestServe(ctx context.Context, e *env, o options, ct *cellTrace, out *result) error {
	m := e.members[0]
	dir, err := os.MkdirTemp(e.scratch, "wal-*")
	if err != nil {
		return err
	}
	store, err := wal.Open(dir, e.ds)
	if err != nil {
		return err
	}
	st := &ingestStats{}
	nA := o.scale(phaseARows)
	windowB := o.share(0.6)
	rowRate, readRate := ingestRowRate*o.rateScale, readRateQPS*o.rateScale
	nB := int(rowRate * windowB.Seconds())
	every := o.scale(checkpointEvery)
	rows := genRows(wal.NewRowGen(e.ds, o.seed), nA+nB)

	// The served generation: the member's engine at epoch 0, swapped forward
	// at every phase-B checkpoint. Displaced engines stay open until the
	// reads pinned to them have drained — here, until the phase ends.
	wrap := func(eng engine.Engine) engine.Engine {
		if o.trace {
			return &tracedEngine{Engine: eng, key: m.Key}
		}
		return eng
	}
	srv := serve.New(wrap(m.eng), serve.Options{MaxConcurrent: o.procs, WorkerBudget: o.procs})
	current := m.eng
	var retired []engine.Engine
	var engDirs []string
	defer func() {
		for _, eng := range retired {
			eng.Close()
		}
		if current != m.eng {
			current.Close()
		}
		for _, d := range engDirs {
			os.RemoveAll(d)
		}
	}()

	// Phase A.
	appendFlatOut(store, rows[:nA], o.scale(chunkRows), o.procs, st, e.audit)

	// Phase B: appender and reader side by side.
	var samples []ackSample
	var cycles [][2]time.Duration // checkpoint start → Swap returned, from the phase's start
	start := time.Now()
	appender := func() error {
		for i, row := range rows[nA:] {
			if wait := time.Duration(float64(i)/rowRate*float64(time.Second)) - time.Since(start); wait > 0 {
				time.Sleep(wait)
			}
			t0 := time.Now()
			err := store.Append(row)
			st.appendMs = append(st.appendMs, ms(time.Since(t0)))
			e.audit.op("append", err)
			if err != nil {
				return err
			}
			st.rows++
			if (i+1)%(every/2) == 0 {
				samples = append(samples, ackSample{rows: st.rows, size: fileSize(dir, "wal.log")})
			}
			if (i+1)%every != 0 {
				continue
			}
			t0 = time.Now()
			epoch, err := store.Checkpoint()
			st.checkpointMs = append(st.checkpointMs, ms(time.Since(t0)))
			e.audit.op("checkpoint", err)
			if err != nil {
				return err
			}
			t1 := time.Now()
			snap, err := store.SnapshotAt(epoch)
			st.snapshotMs = append(st.snapshotMs, ms(time.Since(t1)))
			e.audit.op("snapshot", err)
			if err != nil {
				return err
			}
			t1 = time.Now()
			edir, err := os.MkdirTemp(e.scratch, "eng-*")
			if err != nil {
				return err
			}
			engDirs = append(engDirs, edir)
			eng := m.New(edir)
			err = eng.Load(snap.Dataset)
			st.reloadMs = append(st.reloadMs, ms(time.Since(t1)))
			e.audit.op("engine reload", err)
			if err != nil {
				return err
			}
			srv.Swap(wrap(eng), epoch)
			st.swapMs = append(st.swapMs, ms(time.Since(t0)))
			cycles = append(cycles, [2]time.Duration{t0.Sub(start), time.Since(start)})
			if current != m.eng {
				retired = append(retired, current)
			}
			current = eng
		}
		return nil
	}
	var appendErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		appendErr = appender()
	}()
	ks := e.keys
	sched := poissonSchedule(o.seed, 0, readRate, windowB)
	reads, backlog := openLoop(ctx, srv, ks.stream(o.seed, 7, len(sched)), sched, 1, o.trace)
	wg.Wait()
	if appendErr != nil {
		return fmt.Errorf("phase B appender: %w", appendErr)
	}
	epochs := int(store.Epoch()) + 1
	auditServed(reads, epochs, nil, e.audit)
	rd := reduceWindow(reads, windowB, backlog)
	// The gated percentiles are those of the reads that arrived outside a
	// checkpoint-to-swap cycle: a read inside one competes with the fold, the
	// snapshot and the engine load for two cores, and how much that costs it
	// is decided by the host's neighbours more than by the program (ten runs
	// spread by 17-26% with those reads in, by 9-12% without). They are
	// reported per layer instead (serve.swap_read_p95_ms). A read that queues
	// behind a stalled one is timed from its scheduled arrival, so a stall
	// that outlasts its cycle still shows. As on serve-fleet, the calmer half
	// of the phase's ten equal slices is pooled.
	slices := make([]windowStats, 10)
	var inCycle []float64
	for i := range reads {
		at := reads[i].sched
		if within(cycles, at) {
			inCycle = append(inCycle, rd.lat[i])
			continue
		}
		k := min(int(at*time.Duration(len(slices))/windowB), len(slices)-1)
		slices[k].lat = append(slices[k].lat, rd.lat[i])
	}
	calm := calmHalf(slices)
	if len(calm) == 0 {
		// Cycles back to back: the smoke scale on a slow host. Keep every read.
		calm = rd.lat
	}
	out.set("serve_p50_ms", quantile(calm, 0.50), len(calm))
	out.set("serve_p95_ms", quantile(calm, 0.95), len(calm))
	out.set("serve.swap_read_p95_ms", quantile(inCycle, 0.95), len(inCycle))

	// The final epoch, unloaded, in rounds that each hold a closed-loop slice
	// with one client (capacity), passes over the cells on the engine that now
	// serves, and one reopen of the store, closed by now (phase C) — each
	// sampled across the rest of the run. The cells take the selective
	// parameters: over 12 000 patients the default regression is a 270-ms
	// cell, and on this host an operation that long does not get one
	// undisturbed run in twelve; the selective ones stay in single
	// milliseconds.
	final := &member{FleetMember: m.FleetMember, eng: current, module: m.module}
	e.cells = buildCells([]*member{final}, selectiveParams(), store.Epoch())
	rec := closeStore(store, dir, e.ds, st, e.audit)
	var capacity []float64
	var closed windowStats
	var capOuts []outcome
	for r := 0; r < ingestRounds; r++ {
		outs, elapsed := closedLoop(ctx, srv, [][]request{ks.stream(o.seed, uint64(1000+r), 2048)}, o.share(0.0125), o.trace)
		var refs []*member
		if r == 0 {
			refs = []*member{final}
		}
		auditServed(outs, 1, refs, e.audit)
		capacity = append(capacity, float64(len(outs))/elapsed.Seconds())
		closed.merge(reduceWindow(outs, elapsed, 0))
		capOuts = append(capOuts, outs...)
		for i := 0; i < max(1, o.minPasses/2); i++ {
			e.cellPass(ctx, ct)
		}
		rec.reopen(e.audit)
		if err := e.sampleSetUp(ctx, o); err != nil {
			return err
		}
	}
	e.cellMetrics(ct, out)
	out.set("serve_capacity_qps", quantile(capacity, 0.75), closed.n)

	total := rd
	total.merge(closed)
	served := total.n - total.failed
	ss := srv.Stats()
	out.set("serve.queue_wait_p95_ms", rd.queueWaitP95, rd.n)
	out.set("serve.service_p50_ms", median(total.serviceMs), len(total.serviceMs))
	out.set("serve.hit_us", median(total.hitUs), len(total.hitUs))
	out.set("serve.cache_hit_ratio", ratio(float64(total.hits), float64(served)), served)
	out.set("serve.route_overhead_us", median(total.routeOverheadUs), len(total.routeOverheadUs))
	out.set("serve.shed", float64(ss.Shed), served)
	out.set("serve.deadlined", float64(ss.Deadlined), served)
	out.set("serve.backends_used", 1, served)
	out.set("serve.p99_ms", rd.p99, rd.n)
	out.set("serve.gen_late_p99_ms", rd.genLateP99, rd.n)
	out.set("serve.backlog_end", float64(rd.backlog), rd.n)
	okRate := 0.0
	if rd.failed == 0 && rd.p95 <= latencyLimitMs && rd.backlog <= 1 {
		okRate = readRateQPS
	}
	out.set("serve.max_ok_rate_qps", okRate, 1)
	if o.trace {
		e.rec.serveSpans(append(reads, capOuts...))
	}

	st.metrics(e.ds.Dims.Genes, out)
	return checkDurability(dir, e.ds, samples, e.scratch, e.audit)
}

// within reports whether offset at falls inside one of the intervals.
func within(intervals [][2]time.Duration, at time.Duration) bool {
	for _, iv := range intervals {
		if at >= iv[0] && at <= iv[1] {
			return true
		}
	}
	return false
}

// checkDurability replays what a crash right after an acknowledgement would
// have left: wal.log cut to the size observed after the ack, opened in a
// fresh directory, must hold every row acknowledged by then. Three samples
// (first, middle, last) bound the cost; each is a full recovery.
func checkDurability(dir string, base *datagen.Dataset, samples []ackSample, scratch string, a *audit) error {
	if len(samples) == 0 {
		return nil
	}
	picks := []ackSample{samples[0], samples[len(samples)/2], samples[len(samples)-1]}
	for _, s := range picks {
		cut, err := os.MkdirTemp(scratch, "cut-*")
		if err != nil {
			return err
		}
		err = copyPrefix(filepath.Join(dir, "wal.log"), filepath.Join(cut, "wal.log"), s.size)
		if err != nil {
			return err
		}
		st, err := wal.Open(cut, base)
		a.op("durability reopen", err)
		if err == nil {
			snap, serr := st.Snapshot()
			a.op("durability snapshot", serr)
			if serr == nil {
				have := snap.Dataset.Dims.Patients - base.Dims.Patients + st.DeltaRows()
				if have < s.rows {
					a.fail("durability: %d rows acknowledged at log size %d, %d recovered", s.rows, s.size, have)
				}
			}
			st.Close()
		}
		os.RemoveAll(cut)
	}
	return nil
}

func copyPrefix(src, dst string, n int64) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.CopyN(out, in, n); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
