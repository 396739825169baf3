package main

import (
	"context"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/genbase/genbase/internal/bicluster"
	"github.com/genbase/genbase/internal/colpage"
	"github.com/genbase/genbase/internal/datagen"
	"github.com/genbase/genbase/internal/engine"
	"github.com/genbase/genbase/internal/linalg"
	"github.com/genbase/genbase/internal/storage"
)

// probeReps is how often each direct probe runs; the median is reported.
const probeReps = 5

// timeMedian runs fn reps times after one warm-up and returns the median
// duration in ms.
func timeMedian(reps int, fn func()) float64 {
	fn()
	var xs []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		fn()
		xs = append(xs, ms(time.Since(t0)))
	}
	return median(xs)
}

// subMatrix copies the given patient rows and gene columns of the
// expression matrix — the pivot the probes hand to the kernels. nil selects
// all.
func subMatrix(ds *datagen.Dataset, pats, genes []int) *linalg.Matrix {
	if pats == nil {
		pats = make([]int, ds.Dims.Patients)
		for i := range pats {
			pats[i] = i
		}
	}
	if genes == nil {
		genes = make([]int, ds.Dims.Genes)
		for i := range genes {
			genes[i] = i
		}
	}
	m := linalg.NewMatrix(len(pats), len(genes))
	for i, p := range pats {
		row := ds.Expression.Row(p)
		out := m.Row(i)
		for j, g := range genes {
			out[j] = row[g]
		}
	}
	return m
}

// kernelProbes times the shared numeric kernels directly, at the shapes the
// workload's own queries hand them (its dataset, its parameters). Flop
// counts are computed from the shapes, not measured.
func kernelProbes(ds *datagen.Dataset, p engine.Params, reps int, out *result) {
	// GEMM at the CI floor's shape; flops computed as 2n^3.
	const n = 512
	a, b := linalg.NewMatrix(n, n), linalg.NewMatrix(n, n)
	rng := datagen.NewRNG(1)
	for i := range a.Data {
		a.Data[i], b.Data[i] = rng.NormFloat64(), rng.NormFloat64()
	}
	t := timeMedian(reps, func() { linalg.PutMatrix(linalg.Mul(a, b)) })
	out.set("linalg.gemm_gflops", 2*float64(n)*n*n/(t*1e6), reps)

	// Gram (A^T A) of the whole expression matrix — Q2's covariance core at
	// this preset; flops computed as 2·rows·cols².
	x := ds.Expression
	t = timeMedian(reps, func() { linalg.PutMatrix(linalg.MulATA(x)) })
	out.set("linalg.gram_gflops", 2*float64(x.Rows)*float64(x.Cols)*float64(x.Cols)/(t*1e6), reps)

	// Q1's and Q4's pivot: all patients × genes passing the predicate.
	var genes []int
	for _, g := range ds.Genes {
		if int64(g.Function) < p.FunctionThreshold {
			genes = append(genes, int(g.ID))
		}
	}
	design := linalg.AddInterceptColumn(subMatrix(ds, nil, genes))
	y := make([]float64, ds.Dims.Patients)
	for i, pt := range ds.Patients {
		y[i] = pt.DrugResponse
	}
	out.set("linalg.lstsq_ms", timeMedian(reps, func() { linalg.LeastSquares(design, y) }), reps)
	sel := subMatrix(ds, nil, genes)
	out.set("linalg.lanczos_ms", timeMedian(reps, func() {
		linalg.TopKSVD(sel, p.SVDK, linalg.LanczosOptions{Reorthogonalize: true, Seed: p.Seed})
	}), reps)

	// Q3's pivot: filtered patients × all genes.
	var pats []int
	for i, pt := range ds.Patients {
		if pt.Gender == p.Gender && int64(pt.Age) < p.MaxAge {
			pats = append(pats, i)
		}
	}
	bic := subMatrix(ds, pats, nil)
	out.set("bicluster.run_ms", timeMedian(reps, func() {
		bicluster.Run(bic, bicluster.Options{MaxBiclusters: p.MaxBiclusters, Seed: p.Seed})
	}), reps)

	// Q5's kernel: per-term Wilcoxon over the sampled per-gene means.
	step := p.SamplePatientStep()
	means := make([]float64, ds.Dims.Genes)
	sampled := 0
	for i := 0; i < ds.Dims.Patients; i += step {
		for j, v := range ds.Expression.Row(i) {
			means[j] += v
		}
		sampled++
	}
	for j := range means {
		means[j] /= float64(sampled)
	}
	members := make([][]int32, ds.Dims.GOTerms)
	for g := 0; g < ds.Dims.Genes; g++ {
		for t := 0; t < ds.Dims.GOTerms; t++ {
			if ds.GO[g*ds.Dims.GOTerms+t] == 1 {
				members[t] = append(members[t], int32(g))
			}
		}
	}
	out.set("stats.enrichment_ms", timeMedian(reps, func() {
		engine.EnrichmentTest(context.Background(), means, members, sampled)
	}), reps)
}

// storageProbes measures the page layers under the row and column stores
// directly: predicate evaluation on encoded pages built from the workload's
// metadata, and a cursor scan of a heap six times its buffer pool — the
// ratio the medium microarray heap has to rowstore's 512-frame pool.
func storageProbes(ds *datagen.Dataset, p engine.Params, reps int, scratch string, out *result) error {
	// colpage: the gene function column (dictionary- or packed-encoded) under
	// Q1's predicate, and the patient disease column under Q2's. The columns
	// are tiled to 64Ki rows so one Select is long enough to time.
	const tile = 1 << 16
	fn := make([]int64, 0, tile)
	dis := make([]int64, 0, tile)
	for len(fn) < tile {
		for _, g := range ds.Genes {
			fn = append(fn, int64(g.Function))
		}
	}
	for len(dis) < tile {
		for _, pt := range ds.Patients {
			dis = append(dis, int64(pt.DiseaseID))
		}
	}
	fnPage, disPage := colpage.BuildInt(fn), colpage.BuildInt(dis)
	var sel []int32
	t := timeMedian(reps, func() {
		sel = fnPage.Select(colpage.Pred{Op: colpage.LT, Val: p.FunctionThreshold}, sel[:0])
		sel = disPage.Select(colpage.Pred{Op: colpage.EQ, Val: p.DiseaseID}, sel[:0])
	})
	out.set("colpage.select_mrows_s", float64(len(fn)+len(dis))/(t*1e3), reps)
	out.detail = append(out.detail, map[string]any{"row": "colpage", "function_encoding": fnPage.Encoding().String(), "disease_encoding": disPage.Encoding().String()})

	// storage: 64 frames, 384 pages of microarray-row-sized records.
	const frames = 64
	heap, err := storage.CreateHeapFile(filepath.Join(scratch, "probe.heap"), frames)
	if err != nil {
		return err
	}
	defer heap.Remove()
	rec := make([]byte, 2000)
	for heap.NumPages() < 6*frames {
		if err := heap.Append(rec); err != nil {
			return err
		}
	}
	pool := heap.Pool()
	var scanErr error
	t = timeMedian(reps, func() {
		if err := heap.Scan(func([]byte) error { return nil }); err != nil {
			scanErr = err
		}
	})
	if scanErr != nil {
		return scanErr
	}
	out.set("storage.scan_pages_s", float64(heap.NumPages())/(t/1e3), reps)
	// A scan never re-reads a page, so the pool's hit ratio is taken from
	// what an index lookup does instead: point fetches, Zipf-skewed over the
	// pages, against the same six-times-too-small pool.
	const fetches = 4096
	h0, m0 := pool.Hits.Load(), pool.Misses.Load()
	rng := rand.New(rand.NewPCG(1, 0x706f6f6c)) // "pool"
	cdf := zipfCDF(int(heap.NumPages()))
	for i := 0; i < fetches; i++ {
		page := int64(sort.SearchFloat64s(cdf, rng.Float64()))
		if _, err := pool.FetchPage(page); err != nil {
			return err
		}
		if err := pool.Unpin(page, false); err != nil {
			return err
		}
	}
	hits, misses := float64(pool.Hits.Load()-h0), float64(pool.Misses.Load()-m0)
	out.set("storage.pool_hit_ratio", ratio(hits, hits+misses), fetches)
	out.detail = append(out.detail, map[string]any{"row": "storage", "pages": heap.NumPages(), "frames": frames, "evictions": pool.Evictions.Load()})
	return nil
}

// runtimeBaseline is a snapshot of the Go runtime's counters.
type runtimeBaseline struct {
	alloc   uint64
	pauseNs uint64
}

func readRuntime() runtimeBaseline {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return runtimeBaseline{alloc: m.TotalAlloc, pauseNs: m.PauseTotalNs}
}

// runtimeMetrics reports what the run cost the runtime since base: bytes
// allocated per cell pass, total GC pause, and the process's peak resident
// set (VmHWM; 0 where /proc is absent).
func runtimeMetrics(base runtimeBaseline, passes int, out *result) {
	now := readRuntime()
	out.set("runtime.alloc_mb_per_pass", float64(now.alloc-base.alloc)/1e6/float64(max(passes, 1)), passes)
	out.set("runtime.gc_pause_ms", float64(now.pauseNs-base.pauseNs)/1e6, 1)
	rss := 0.0
	if raw, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.Fields(rest)[0], 64); err == nil {
					rss = kb / 1e3
				}
			}
		}
	}
	out.set("runtime.peak_rss_mb", rss, 1)
}

// gitSHA is the checkout's commit, when there is one to read (the driver's
// checkout is not a git repository).
func gitSHA() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}
