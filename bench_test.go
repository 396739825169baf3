// Benchmarks regenerating the paper's evaluation, one per figure panel
// family and table, plus the ablation benches called out in DESIGN.md §8.
//
//	go test -bench=. -benchmem
//
// Figure benches run the small preset so the full suite stays fast; the
// genbase-bench command runs the full small/medium/large sweep. Multi-node
// benches report the virtual-cluster makespan as the custom metric
// "virtual-sec/op" (see DESIGN.md §3.3); wall-clock ns/op for those is the
// serial execution cost of the simulation itself.
package genbase

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/genbase/genbase/internal/analytics"
	"github.com/genbase/genbase/internal/arraydb"
	"github.com/genbase/genbase/internal/bicluster"
	"github.com/genbase/genbase/internal/colstore"
	"github.com/genbase/genbase/internal/core"
	"github.com/genbase/genbase/internal/datagen"
	"github.com/genbase/genbase/internal/engine"
	"github.com/genbase/genbase/internal/linalg"
	"github.com/genbase/genbase/internal/multinode"
	"github.com/genbase/genbase/internal/xeonphi"
)

var benchDataset = sync0nceDataset()

func sync0nceDataset() func(b *testing.B) *datagen.Dataset {
	var ds *datagen.Dataset
	return func(b *testing.B) *datagen.Dataset {
		if ds == nil {
			var err error
			ds, err = datagen.Generate(datagen.Config{Size: datagen.Small, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
		}
		return ds
	}
}

// loadedEngine builds and loads a single-node engine for a configuration.
func loadedEngine(b *testing.B, name string) engine.Engine {
	b.Helper()
	cfg, err := core.ConfigByName(name)
	if err != nil {
		b.Fatal(err)
	}
	dir, err := os.MkdirTemp("", "genbase-bench-*")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { os.RemoveAll(dir) })
	eng := cfg.New(1, dir)
	b.Cleanup(func() { eng.Close() })
	if err := eng.Load(benchDataset(b)); err != nil {
		b.Fatal(err)
	}
	return eng
}

// benchQuery runs one query per iteration on every single-node system that
// supports it — the engine behind one Figure 1 panel.
func benchQuery(b *testing.B, q engine.QueryID) {
	p := engine.DefaultParams()
	for _, cfg := range core.SingleNodeConfigs() {
		cfg := cfg
		b.Run(cfg.Name, func(b *testing.B) {
			b.ReportAllocs()
			eng := loadedEngine(b, cfg.Name)
			if !eng.Supports(q) {
				b.Skip("query unsupported by this configuration")
			}
			ctx := context.Background()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Run(ctx, q, p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFigure1Regression(b *testing.B)   { benchQuery(b, engine.Q1Regression) }
func BenchmarkFigure1Biclustering(b *testing.B) { benchQuery(b, engine.Q3Biclustering) }
func BenchmarkFigure1SVD(b *testing.B)          { benchQuery(b, engine.Q4SVD) }
func BenchmarkFigure1Covariance(b *testing.B)   { benchQuery(b, engine.Q2Covariance) }
func BenchmarkFigure1Statistics(b *testing.B)   { benchQuery(b, engine.Q5Statistics) }

// BenchmarkFigure2RegressionBreakdown reports the DM and analytics phases of
// the regression query as custom metrics per system (Figure 2a–b).
func BenchmarkFigure2RegressionBreakdown(b *testing.B) {
	p := engine.DefaultParams()
	for _, cfg := range core.SingleNodeConfigs() {
		cfg := cfg
		b.Run(cfg.Name, func(b *testing.B) {
			b.ReportAllocs()
			eng := loadedEngine(b, cfg.Name)
			ctx := context.Background()
			var dm, an float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := eng.Run(ctx, engine.Q1Regression, p)
				if err != nil {
					b.Fatal(err)
				}
				dm += res.Timing.DataManagement.Seconds() + res.Timing.Transfer.Seconds()
				an += res.Timing.Analytics.Seconds()
			}
			b.ReportMetric(dm/float64(b.N), "dm-sec/op")
			b.ReportMetric(an/float64(b.N), "analytics-sec/op")
		})
	}
}

// benchMultiNode runs one query on the virtual cluster across node counts,
// reporting the simulated makespan (Figures 3–4).
func benchMultiNode(b *testing.B, q engine.QueryID) {
	p := engine.DefaultParams()
	for _, cfg := range core.MultiNodeConfigs() {
		for _, nodes := range []int{1, 2, 4} {
			cfg, nodes := cfg, nodes
			b.Run(fmt.Sprintf("%s/nodes=%d", cfg.Name, nodes), func(b *testing.B) {
				b.ReportAllocs()
				eng := cfg.NewCluster(nodes)
				defer eng.Close()
				if !eng.Supports(q) {
					b.Skip("query unsupported by this configuration")
				}
				if err := eng.Load(benchDataset(b)); err != nil {
					b.Fatal(err)
				}
				ctx := context.Background()
				var virtual float64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := eng.Run(ctx, q, p)
					if err != nil {
						b.Fatal(err)
					}
					virtual += res.Timing.Total().Seconds()
				}
				b.ReportMetric(virtual/float64(b.N), "virtual-sec/op")
			})
		}
	}
}

func BenchmarkFigure3Regression(b *testing.B) { benchMultiNode(b, engine.Q1Regression) }
func BenchmarkFigure3Covariance(b *testing.B) { benchMultiNode(b, engine.Q2Covariance) }
func BenchmarkFigure3SVD(b *testing.B)        { benchMultiNode(b, engine.Q4SVD) }
func BenchmarkFigure3Statistics(b *testing.B) { benchMultiNode(b, engine.Q5Statistics) }

// Figure 3b (biclustering) is separate: it is the slowest panel, so it runs
// at 1 and 4 nodes only.
func BenchmarkFigure3Biclustering(b *testing.B) {
	p := engine.DefaultParams()
	for _, nodes := range []int{1, 4} {
		nodes := nodes
		b.Run(fmt.Sprintf("pbdr/nodes=%d", nodes), func(b *testing.B) {
			b.ReportAllocs()
			eng := multinode.New(multinode.PBDR, nodes)
			if err := eng.Load(benchDataset(b)); err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Run(ctx, engine.Q3Biclustering, p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFigure4RegressionBreakdown reports the multi-node DM/analytics
// split (Figure 4a–b) as virtual-time metrics.
func BenchmarkFigure4RegressionBreakdown(b *testing.B) {
	p := engine.DefaultParams()
	for _, cfg := range core.MultiNodeConfigs() {
		for _, nodes := range []int{1, 4} {
			cfg, nodes := cfg, nodes
			b.Run(fmt.Sprintf("%s/nodes=%d", cfg.Name, nodes), func(b *testing.B) {
				b.ReportAllocs()
				eng := cfg.NewCluster(nodes)
				defer eng.Close()
				if err := eng.Load(benchDataset(b)); err != nil {
					b.Fatal(err)
				}
				ctx := context.Background()
				var dm, an float64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := eng.Run(ctx, engine.Q1Regression, p)
					if err != nil {
						b.Fatal(err)
					}
					dm += res.Timing.DataManagement.Seconds()
					an += res.Timing.Analytics.Seconds()
				}
				b.ReportMetric(dm/float64(b.N), "virtual-dm-sec/op")
				b.ReportMetric(an/float64(b.N), "virtual-analytics-sec/op")
			})
		}
	}
}

// BenchmarkFigure5XeonPhi compares host SciDB against the coprocessor model
// per query (Figure 5a–d), reporting the modeled total as the metric.
func BenchmarkFigure5XeonPhi(b *testing.B) {
	p := engine.DefaultParams()
	queries := map[string]engine.QueryID{
		"biclustering": engine.Q3Biclustering,
		"svd":          engine.Q4SVD,
		"covariance":   engine.Q2Covariance,
		"statistics":   engine.Q5Statistics,
	}
	for _, system := range []string{"scidb", "scidb-phi"} {
		for name, q := range queries {
			system, name, q := system, name, q
			b.Run(system+"/"+name, func(b *testing.B) {
				b.ReportAllocs()
				eng := loadedEngine(b, system)
				ctx := context.Background()
				var total float64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := eng.Run(ctx, q, p)
					if err != nil {
						b.Fatal(err)
					}
					total += res.Timing.Total().Seconds()
				}
				b.ReportMetric(total/float64(b.N), "modeled-sec/op")
			})
		}
	}
}

// BenchmarkTable1PhiSpeedup reports the analytics-phase speedup of the Phi
// configuration per query and node count (Table 1) as the metric "speedup".
// Note: like all benches in this file it runs the small preset, where
// per-iteration PCIe latency dominates tiny kernels and speedups can drop
// below 1 (the paper's own small-dataset observation). The paper's actual
// Table 1 uses the large dataset — regenerate it with
// `genbase-bench figures table1`.
func BenchmarkTable1PhiSpeedup(b *testing.B) {
	p := engine.DefaultParams()
	queries := map[string]engine.QueryID{
		"covariance":   engine.Q2Covariance,
		"svd":          engine.Q4SVD,
		"statistics":   engine.Q5Statistics,
		"biclustering": engine.Q3Biclustering,
	}
	for name, q := range queries {
		for _, nodes := range []int{1, 2} {
			name, q, nodes := name, q, nodes
			b.Run(fmt.Sprintf("%s/nodes=%d", name, nodes), func(b *testing.B) {
				b.ReportAllocs()
				host := multinode.New(multinode.SciDB, nodes)
				phi := multinode.New(multinode.SciDBPhi, nodes)
				if err := host.Load(benchDataset(b)); err != nil {
					b.Fatal(err)
				}
				if err := phi.Load(benchDataset(b)); err != nil {
					b.Fatal(err)
				}
				ctx := context.Background()
				var ratio float64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					hres, err := host.Run(ctx, q, p)
					if err != nil {
						b.Fatal(err)
					}
					pres, err := phi.Run(ctx, q, p)
					if err != nil {
						b.Fatal(err)
					}
					h := hres.Timing.Analytics.Seconds()
					d := pres.Timing.Analytics.Seconds() + pres.Timing.Transfer.Seconds()
					if d > 0 {
						ratio += h / d
					}
				}
				b.ReportMetric(ratio/float64(b.N), "speedup")
			})
		}
	}
}

// --- parallel kernel benches (DESIGN.md §9) ---
//
// These compare the serial path (one worker) against the multicore path on
// the Large preset's hot shapes, and the naive oracle against both. They are
// -cpu aware: `go test -bench Kernel -cpu 1,2,4,8` reruns each with
// GOMAXPROCS set accordingly, and the parallel variants size their worker
// pool from GOMAXPROCS — so one sweep yields the single-core vs multicore
// speedup curve.

// kernelBenchDims is the Large preset's expression-matrix shape (patients ×
// genes at the repo's 1/20 scale).
const (
	kernelRows = 2000
	kernelCols = 1500
)

func BenchmarkKernelGEMM(b *testing.B) {
	a := randomMatrix(kernelRows, kernelCols, 21)
	w := randomMatrix(kernelCols, 256, 22)
	b.Run("naive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			linalg.MulNaive(a, w)
		}
	})
	b.Run("packed-serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			linalg.MulBlockedP(a, w, 1)
		}
	})
	b.Run("packed-parallel", func(b *testing.B) {
		b.ReportAllocs()
		workers := runtime.GOMAXPROCS(0)
		for i := 0; i < b.N; i++ {
			linalg.MulBlockedP(a, w, workers)
		}
	})
}

// BenchmarkKernelGEMM512 is the perf-floor shape (DESIGN.md §17): packed
// serial GEMM vs the naive oracle at 512³, the pair the CI kernel floor
// (TestKernelPerfFloor512) asserts on.
func BenchmarkKernelGEMM512(b *testing.B) {
	a := randomMatrix(512, 512, 26)
	w := randomMatrix(512, 512, 27)
	b.Run("naive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			linalg.MulNaive(a, w)
		}
	})
	b.Run("packed-serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			linalg.MulBlockedP(a, w, 1)
		}
	})
}

func BenchmarkKernelGram(b *testing.B) {
	a := randomMatrix(kernelRows, kernelCols/2, 23)
	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			linalg.MulATAP(a, 1)
		}
	})
	b.Run("parallel", func(b *testing.B) {
		b.ReportAllocs()
		workers := runtime.GOMAXPROCS(0)
		for i := 0; i < b.N; i++ {
			linalg.MulATAP(a, workers)
		}
	})
}

func BenchmarkKernelCovariance(b *testing.B) {
	a := randomMatrix(kernelRows, kernelCols/2, 24)
	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			linalg.CovarianceP(a, 1)
		}
	})
	b.Run("parallel", func(b *testing.B) {
		b.ReportAllocs()
		workers := runtime.GOMAXPROCS(0)
		for i := 0; i < b.N; i++ {
			linalg.CovarianceP(a, workers)
		}
	})
}

func BenchmarkKernelSVD(b *testing.B) {
	a := randomMatrix(kernelRows, 400, 25)
	for _, serial := range []bool{true, false} {
		name, workers := "parallel", runtime.GOMAXPROCS(0)
		if serial {
			name, workers = "serial", 1
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := linalg.TopKSVD(a, 10, linalg.LanczosOptions{Reorthogonalize: true, Seed: 1, Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- second-pass kernel benches (DESIGN.md §9) ---
//
// The four non-GEMM kernel bodies under every Figure 1/3 cell, at the medium
// preset's shapes, each beside the test-only body it replaced
// (kernel_ref_test.go). "serial" pins one worker; "parallel" sizes the pool
// from GOMAXPROCS, so `-cpu 1,2,4` sweeps it. Cheng–Church has no parallel
// row: its reductions are ordered and it runs on one goroutine.

// kernelFixture holds the medium preset's kernel inputs, built once.
type kernelFixture struct {
	design  *linalg.Matrix // Q1: [1 | patients × genes with function < 250], 1000×204
	y       []float64
	expr    *linalg.Matrix // Q3: the whole expression matrix, 1000×750
	cov     *linalg.Matrix // Q2: its 750² covariance
	means   []float64      // Q5: per-gene means over the sampled patients
	members [][]int32      // Q5: genes of each of the 200 GO terms
	sampled int
}

var mediumKernels = sync.OnceValues(func() (*kernelFixture, error) {
	ds, err := datagen.Generate(datagen.Config{Size: datagen.Medium, Seed: 1})
	if err != nil {
		return nil, err
	}
	p := engine.DefaultParams()
	f := &kernelFixture{expr: ds.Expression, cov: linalg.CovarianceP(ds.Expression, 1)}
	var genes []int
	for _, g := range ds.Genes {
		if int64(g.Function) < p.FunctionThreshold {
			genes = append(genes, int(g.ID))
		}
	}
	sel := linalg.NewMatrix(ds.Dims.Patients, len(genes))
	for i := 0; i < sel.Rows; i++ {
		row, out := ds.Expression.Row(i), sel.Row(i)
		for j, g := range genes {
			out[j] = row[g]
		}
	}
	f.design = linalg.AddInterceptColumn(sel)
	for _, pt := range ds.Patients {
		f.y = append(f.y, pt.DrugResponse)
	}
	f.means = make([]float64, ds.Dims.Genes)
	for i := 0; i < ds.Dims.Patients; i += p.SamplePatientStep() {
		for j, v := range ds.Expression.Row(i) {
			f.means[j] += v
		}
		f.sampled++
	}
	for j := range f.means {
		f.means[j] /= float64(f.sampled)
	}
	f.members = make([][]int32, ds.Dims.GOTerms)
	for g := 0; g < ds.Dims.Genes; g++ {
		for t := range f.members {
			if ds.GOAt(g, t) == 1 {
				f.members[t] = append(f.members[t], int32(g))
			}
		}
	}
	return f, nil
})

func kernelInputs(tb testing.TB) *kernelFixture {
	tb.Helper()
	f, err := mediumKernels()
	if err != nil {
		tb.Fatal(err)
	}
	return f
}

// benchKernel runs the reference body ("ref"), the kernel at one worker
// ("serial") and, for kernels that fan out, at GOMAXPROCS workers
// ("parallel" — read inside the sub-benchmark, which is what -cpu re-runs).
func benchKernel(b *testing.B, fansOut bool, ref func(), kernel func(workers int)) {
	run := func(name string, fn func()) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				fn()
			}
		})
	}
	run("ref", ref)
	run("serial", func() { kernel(1) })
	if fansOut {
		b.Run("parallel", func(b *testing.B) {
			b.ReportAllocs()
			workers := runtime.GOMAXPROCS(0)
			for i := 0; i < b.N; i++ {
				kernel(workers)
			}
		})
	}
}

func BenchmarkKernelLstsq(b *testing.B) {
	f := kernelInputs(b)
	benchKernel(b, true,
		func() { refLeastSquares(f.design, f.y) },
		func(w int) { linalg.LeastSquaresP(f.design, f.y, w) })
}

func BenchmarkKernelBicluster(b *testing.B) {
	f := kernelInputs(b)
	opts := bicluster.Options{MaxBiclusters: engine.DefaultParams().MaxBiclusters, Seed: 1}
	benchKernel(b, false,
		func() { refBiclusterRun(f.expr, opts) },
		func(int) { bicluster.Run(f.expr, opts) })
}

// BenchmarkKernelTopK: "ref" is only the replaced step — gather |cov|, sort
// all of it, read the threshold; "serial" is the whole of today's
// SummarizeCovariance (gather, select, the pass that collects the surviving
// pairs, the top-20 sort), so the comparison understates the selection's gain.
func BenchmarkKernelTopK(b *testing.B) {
	f := kernelInputs(b)
	frac := engine.DefaultParams().CovarianceTopFrac
	benchKernel(b, false,
		func() { refCovThreshold(f.cov, frac) },
		func(int) { engine.SummarizeCovariance(f.cov, frac, noFunctions{}, f.expr.Rows) })
}

func BenchmarkKernelEnrichment(b *testing.B) {
	f := kernelInputs(b)
	ctx := context.Background()
	benchKernel(b, true,
		func() { refEnrichmentTest(ctx, f.means, f.members, f.sampled) },
		func(w int) { engine.EnrichmentTestP(ctx, f.means, f.members, f.sampled, w) })
}

// --- ablation benches (DESIGN.md §8) ---

func randomMatrix(r, c int, seed uint64) *linalg.Matrix {
	rng := datagen.NewRNG(seed)
	m := linalg.NewMatrix(r, c)
	for i := range m.Data {
		m.Data[i] = rng.Float64()
	}
	return m
}

// BenchmarkAblationMatmulBlocking: cache-blocked vs naive GEMM. The naive
// loop uses the cache-friendly ikj order, so blocking only pays once the
// working set exceeds L2 — the sweep shows where the crossover falls.
func BenchmarkAblationMatmulBlocking(b *testing.B) {
	for _, n := range []int{128, 256, 768} {
		a := randomMatrix(n, n, 1)
		c := randomMatrix(n, n, 2)
		b.Run(fmt.Sprintf("naive/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				linalg.MulNaive(a, c)
			}
		})
		b.Run(fmt.Sprintf("blocked/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				linalg.Mul(a, c)
			}
		})
	}
}

// BenchmarkAblationLanczosReorth: full reorthogonalization vs none.
func BenchmarkAblationLanczosReorth(b *testing.B) {
	a := randomMatrix(400, 150, 3)
	for _, reorth := range []bool{true, false} {
		reorth := reorth
		name := "reorthogonalized"
		if !reorth {
			name = "plain"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := linalg.TopKSVD(a, 10, linalg.LanczosOptions{Reorthogonalize: reorth, Seed: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationColumnCompression: predicate scans on RLE vs raw layout.
func BenchmarkAblationColumnCompression(b *testing.B) {
	n := 1 << 20
	sorted := make([]int64, n)
	for i := range sorted {
		sorted[i] = int64(i / 4096) // long runs → RLE
	}
	random := make([]int64, n)
	rng := datagen.NewRNG(9)
	for i := range random {
		random[i] = int64(rng.Uint64() % 1_000_003)
	}
	rle := colstore.BuildIntColumn(sorted)
	raw := colstore.BuildIntColumn(random)
	pred := func(v int64) bool { return v%5 == 0 }
	b.Run("rle", func(b *testing.B) {
		b.ReportAllocs()
		var sel []int32
		for i := 0; i < b.N; i++ {
			sel = rle.Select(pred, sel[:0])
		}
	})
	b.Run("raw", func(b *testing.B) {
		b.ReportAllocs()
		var sel []int32
		for i := 0; i < b.N; i++ {
			sel = raw.Select(pred, sel[:0])
		}
	})
}

// BenchmarkAblationExportFormat: the text COPY stream vs the zero-copy UDF
// hand-off colstore-udf runs, for the same matrix (the "+ R" glue cost).
func BenchmarkAblationExportFormat(b *testing.B) {
	m := randomMatrix(250, 250, 5)
	ctx := context.Background()
	b.Run("text-copy", func(b *testing.B) {
		b.ReportAllocs()
		g := analytics.TextGlue{}
		for i := 0; i < b.N; i++ {
			if _, err := g.TransferMatrix(ctx, m); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("zero-copy", func(b *testing.B) {
		b.ReportAllocs()
		g := analytics.ZeroCopyGlue{}
		for i := 0; i < b.N; i++ {
			if _, err := g.TransferMatrix(ctx, m); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationChunkSize: what SciDB's covariance query does across
// chunk sizes — chunk the matrix, gather the selected patients' rows
// chunk-aligned into one dense matrix, then run the shared covariance kernel.
func BenchmarkAblationChunkSize(b *testing.B) {
	m := randomMatrix(500, 400, 7)
	var rows []int64
	for i := 0; i < m.Rows; i += 2 {
		rows = append(rows, int64(i))
	}
	for _, chunk := range []int{32, 128, 256, 512} {
		chunk := chunk
		b.Run(fmt.Sprintf("chunk=%d", chunk), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				x := arraydb.FromMatrix(m, chunk, chunk).GatherRowsDense(rows)
				cov := linalg.CovarianceP(x, 0)
				linalg.PutMatrix(x)
				linalg.PutMatrix(cov)
			}
		})
	}
}

// BenchmarkXeonPhiOffload: the device model's per-kernel rates over one
// host sample per iteration, the way the scidb-phi kernels book their time.
func BenchmarkXeonPhiOffload(b *testing.B) {
	m := randomMatrix(300, 300, 9)
	for _, kind := range []string{xeonphi.KindGEMM, xeonphi.KindBicluster} {
		kind := kind
		b.Run(kind, func(b *testing.B) {
			b.ReportAllocs()
			var modeled float64
			for i := 0; i < b.N; i++ {
				start := time.Now()
				linalg.PutMatrix(linalg.CovarianceP(m, 0))
				compute, transfer := xeonphi.Offload(kind, time.Since(start).Seconds(), 720000, 720000)
				modeled += compute + transfer
			}
			b.ReportMetric(modeled/float64(b.N), "modeled-sec/op")
		})
	}
}

// --- pipeline benches (DESIGN.md §10) ---
//
// End-to-end storage→kernel pipelines, one query in a warm loop.
// Allocation counts are the headline metric: pivots go through views and
// pooled scratch, so a warm query loop should allocate almost nothing on the
// data-management side.
func benchPipelineQuery(b *testing.B, system string, q engine.QueryID) {
	b.ReportAllocs()
	eng := loadedEngine(b, system)
	if !eng.Supports(q) {
		b.Skip("query unsupported by this configuration")
	}
	ctx := context.Background()
	p := engine.DefaultParams()
	// Warm the buffer pools and the scratch arena.
	if _, err := eng.Run(ctx, q, p); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Run(ctx, q, p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPipelineColstoreCovariance(b *testing.B) {
	benchPipelineQuery(b, "colstore-udf", engine.Q2Covariance)
}

func BenchmarkPipelineColstoreRegression(b *testing.B) {
	benchPipelineQuery(b, "colstore-udf", engine.Q1Regression)
}

func BenchmarkPipelineRowstoreCovariance(b *testing.B) {
	benchPipelineQuery(b, "postgres-madlib", engine.Q2Covariance)
}

func BenchmarkPipelineArrayDBCovariance(b *testing.B) {
	benchPipelineQuery(b, "scidb", engine.Q2Covariance)
}
