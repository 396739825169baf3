package cost

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"github.com/genbase/genbase/internal/engine"
	"github.com/genbase/genbase/internal/plan"
)

// The offline fit turns the committed bench baselines into per-configuration
// coefficients. It is pure arithmetic over the committed JSON — no clocks, no
// randomness — so re-running it over the same files reproduces the committed
// coeffs.json bit-for-bit (TestFitReproducesCommittedCoefficients checks
// exactly that).
//
// Three sources, in decreasing quality:
//
//  1. BENCH_pipeline.json measures single queries end-to-end on three
//     engines. colstore-udf has two distinct pipelines (covariance +
//     regression), enough to solve for both class rates directly via 2×2
//     least squares. postgres-madlib and scidb have one pipeline each, so
//     their single equation is split using colstore-udf's fitted kernel
//     share as a prior.
//  2. BENCH_serve.json's clients=1 rows: with one slot the server is fully
//     serial and saturated (offered ≫ achieved), so mean service time for
//     the mix is 1e9/qps. One equation per (system, nodes) group, split by
//     the pipeline-fitted kernel-share prior for the mix.
//  3. BENCH_kernels.json contributes the parallel-vs-serial kernel scale:
//     the measured multi-worker rate multiplier applied when a worker-pinned
//     configuration is estimated.
//
// Everything is recorded at the small preset (250 patients × 250 genes × 100
// GO terms) with engine.DefaultParams(), so the fit compiles exactly those
// plans to get work-unit counts.

// FitDims is the dataset shape the committed baselines were recorded at.
var FitDims = Dims{Patients: 250, Genes: 250, GOTerms: 100}

// pipelineBenches maps BENCH_pipeline.json bench names to the configuration
// and query they measure. Only the "zerocopy" rows are read: they time the
// engines' one data path (the file's "copy" rows measured a copying path
// the engines no longer have).
var pipelineBenches = map[string]struct {
	system string
	query  engine.QueryID
}{
	"PipelineColstoreCovariance/zerocopy": {"colstore-udf", engine.Q2Covariance},
	"PipelineColstoreRegression/zerocopy": {"colstore-udf", engine.Q1Regression},
	"PipelineRowstoreCovariance/zerocopy": {"postgres-madlib", engine.Q2Covariance},
	"PipelineArrayDBCovariance/zerocopy":  {"scidb", engine.Q2Covariance},
}

// serveMixQueries is the query mix BENCH_serve.json's rows were measured
// on: the fit splits each measured mix service time across these plans'
// units.
var serveMixQueries = []engine.QueryID{engine.Q1Regression, engine.Q2Covariance, engine.Q5Statistics}

// kernelScalePairs are the serial/parallel bench-name pairs in
// BENCH_kernels.json whose ratio measures the multi-worker kernel-rate
// multiplier.
var kernelScalePairs = [][2]string{
	{"KernelGEMM/packed-serial", "KernelGEMM/packed-parallel"},
	{"KernelGram/serial", "KernelGram/parallel"},
	{"KernelCovariance/serial", "KernelCovariance/parallel"},
	{"KernelSVD/serial", "KernelSVD/parallel"},
}

type benchFile struct {
	Results []struct {
		Bench   string  `json:"bench"`
		NsPerOp float64 `json:"ns_per_op"`
	} `json:"results"`
}

type serveFile struct {
	Results []struct {
		System  string  `json:"system"`
		Nodes   int     `json:"nodes"`
		Clients int     `json:"clients"`
		QPS     float64 `json:"qps"`
	} `json:"results"`
}

// classUnits is a plan's total work units split by operator class.
type classUnits struct{ dm, kernel float64 }

func planUnits(q engine.QueryID, d Dims) (classUnits, error) {
	pl, err := plan.Compile(q, engine.DefaultParams())
	if err != nil {
		return classUnits{}, fmt.Errorf("compile %v for fit: %w", q, err)
	}
	var u classUnits
	for i := range pl.Nodes {
		n := &pl.Nodes[i]
		if opClass(n.Kind) == classKernel {
			u.kernel += Units(n, d)
		} else {
			u.dm += Units(n, d)
		}
	}
	return u, nil
}

// fitObs is one end-to-end measurement: work units in, wall nanoseconds out.
type fitObs struct {
	u classUnits
	t float64
}

// solve2x2 solves the least-squares normal equations for observations
// (dmU_i, kernU_i) → t_i. ok is false when the system is singular or the
// solution is not strictly positive (a rate of ≤0 ns/unit is unusable).
func solve2x2(obs []fitObs) (x, y float64, ok bool) {
	var a, b, c, d, e float64 // [a b; b c] [x y]' = [d e]'
	for _, o := range obs {
		a += o.u.dm * o.u.dm
		b += o.u.dm * o.u.kernel
		c += o.u.kernel * o.u.kernel
		d += o.u.dm * o.t
		e += o.u.kernel * o.t
	}
	det := a*c - b*b
	if math.Abs(det) < 1e-6*math.Max(a*c, 1) {
		return 0, 0, false
	}
	x = (d*c - b*e) / det
	y = (a*e - b*d) / det
	return x, y, x > 0 && y > 0
}

// kernelShare is the fraction of a workload's predicted time spent in
// kernels under a fitted coefficient pair.
func kernelShare(u classUnits, co Coeff) float64 {
	k := u.kernel * co.KernelNsPerUnit
	tot := u.dm*co.DMNsPerUnit + k
	if tot <= 0 {
		return 0
	}
	return k / tot
}

// splitByShare turns one total-time observation into a coefficient pair by
// assuming the prior kernel share κ.
func splitByShare(u classUnits, t, kappa float64) Coeff {
	var co Coeff
	if u.kernel > 0 {
		co.KernelNsPerUnit = kappa * t / u.kernel
	}
	if u.dm > 0 {
		co.DMNsPerUnit = (1 - kappa) * t / u.dm
	}
	// A workload with no kernel units (or no dm units) leaves that rate
	// unobservable; borrow the other class's rate so the coefficient is at
	// least usable.
	if co.KernelNsPerUnit <= 0 {
		co.KernelNsPerUnit = co.DMNsPerUnit
	}
	if co.DMNsPerUnit <= 0 {
		co.DMNsPerUnit = co.KernelNsPerUnit
	}
	return co
}

// defaultKappa is the kernel-share prior used only if the pipeline fit
// cannot produce one (never with the committed baselines).
const defaultKappa = 0.8

// Fit builds a Model from the three committed bench baselines (the raw JSON
// bytes of BENCH_pipeline.json, BENCH_kernels.json, BENCH_serve.json). The
// fit is deterministic: same bytes in, same model out.
func Fit(pipelineJSON, kernelsJSON, serveJSON []byte) (*Model, error) {
	var pipe, kern benchFile
	var srv serveFile
	if err := json.Unmarshal(pipelineJSON, &pipe); err != nil {
		return nil, fmt.Errorf("parse pipeline bench: %w", err)
	}
	if err := json.Unmarshal(kernelsJSON, &kern); err != nil {
		return nil, fmt.Errorf("parse kernels bench: %w", err)
	}
	if err := json.Unmarshal(serveJSON, &srv); err != nil {
		return nil, fmt.Errorf("parse serve bench: %w", err)
	}

	m := &Model{Coeffs: map[string]Coeff{}}

	// --- stage 1: pipeline rows → per-system observations -----------------
	perSystem := map[string][]fitObs{}
	var systems []string
	for _, r := range pipe.Results {
		pb, ok := pipelineBenches[r.Bench]
		if !ok || r.NsPerOp <= 0 {
			continue
		}
		u, err := planUnits(pb.query, FitDims)
		if err != nil {
			return nil, err
		}
		if _, seen := perSystem[pb.system]; !seen {
			systems = append(systems, pb.system)
		}
		perSystem[pb.system] = append(perSystem[pb.system], fitObs{u, r.NsPerOp})
	}
	sort.Strings(systems)

	// Solve the over-determined systems first; they also set the
	// kernel-share prior κ for the single-equation ones.
	kappa := -1.0
	for _, s := range systems {
		o := perSystem[s]
		if len(o) < 2 {
			continue
		}
		if x, y, ok := solve2x2(o); ok {
			m.Coeffs[s] = Coeff{DMNsPerUnit: x, KernelNsPerUnit: y, Source: "pipeline-lsq"}
			// κ from the first (alphabetically earliest bench) observation.
			k := kernelShare(o[0].u, m.Coeffs[s])
			if kappa < 0 || k < kappa {
				kappa = k
			}
		}
	}
	if kappa < 0 {
		kappa = defaultKappa
	}
	for _, s := range systems {
		if _, done := m.Coeffs[s]; done {
			continue
		}
		o := perSystem[s]
		co := splitByShare(o[0].u, o[0].t, kappa)
		co.Source = "pipeline-prior"
		m.Coeffs[s] = co
	}

	// --- stage 2: serve clients=1 rows → every remaining configuration ----
	mixU := classUnits{}
	for _, q := range serveMixQueries {
		u, err := planUnits(q, FitDims)
		if err != nil {
			return nil, err
		}
		mixU.dm += u.dm / float64(len(serveMixQueries))
		mixU.kernel += u.kernel / float64(len(serveMixQueries))
	}
	// κ for the mix: median predicted kernel share across the
	// pipeline-fitted systems (sorted key order for determinism).
	var shares []float64
	pipeKeys := make([]string, 0, len(m.Coeffs))
	for k := range m.Coeffs {
		pipeKeys = append(pipeKeys, k)
	}
	sort.Strings(pipeKeys)
	for _, k := range pipeKeys {
		shares = append(shares, kernelShare(mixU, m.Coeffs[k]))
	}
	mixKappa := defaultKappa
	if len(shares) > 0 {
		sort.Float64s(shares)
		mixKappa = shares[len(shares)/2]
	}

	// Group clients=1 rows by configuration key, averaging duplicate groups
	// (a system can appear at nodes=1 both as its single-node engine and as
	// its virtual cluster at one node; their mean is the honest blend).
	type acc struct {
		sumT float64
		n    int
	}
	groups := map[string]*acc{}
	var order []string
	for _, r := range srv.Results {
		if r.Clients != 1 || r.QPS <= 0 {
			continue
		}
		key := Config{System: r.System, Nodes: r.Nodes}.Key()
		g, ok := groups[key]
		if !ok {
			g = &acc{}
			groups[key] = g
			order = append(order, key)
		}
		g.sumT += 1e9 / r.QPS
		g.n++
	}
	sort.Strings(order)
	for _, key := range order {
		if _, done := m.Coeffs[key]; done {
			continue // pipeline fit is end-to-end per query: higher quality
		}
		g := groups[key]
		co := splitByShare(mixU, g.sumT/float64(g.n), mixKappa)
		co.Source = "serve-prior"
		m.Coeffs[key] = co
	}

	// --- stage 3: aliases for configurations with no bench rows at all ----
	// scidb-phi is the scidb engine with the accelerator kernel path; seed
	// it from scidb's rates and let the online layer pull them apart.
	if _, ok := m.Coeffs["scidb-phi"]; !ok {
		if co, ok := m.Coeffs["scidb"]; ok {
			co.Source = "alias:scidb"
			m.Coeffs["scidb-phi"] = co
		}
	}

	// --- stage 4: parallel kernel scale from BENCH_kernels.json -----------
	var ratios []float64
	byName := map[string]float64{}
	for _, r := range kern.Results {
		byName[r.Bench] = r.NsPerOp
	}
	for _, p := range kernelScalePairs {
		s, par := byName[p[0]], byName[p[1]]
		if s > 0 && par > 0 {
			ratios = append(ratios, par/s)
		}
	}
	if len(ratios) > 0 {
		sort.Float64s(ratios)
		mid := len(ratios) / 2
		if len(ratios)%2 == 0 {
			m.ParallelKernelScale = (ratios[mid-1] + ratios[mid]) / 2
		} else {
			m.ParallelKernelScale = ratios[mid]
		}
	}

	// The header is part of the committed coeffs.json bytes: changing it
	// means regenerating the file.
	m.Header = fmt.Sprintf("deterministic fit from BENCH_pipeline.json + BENCH_kernels.json + BENCH_serve.json at the small preset (%d patients x %d genes x %d GO terms), engine.DefaultParams(); %d configuration keys; regenerate with: go run ./cmd/genbase-bench fit-cost",
		FitDims.Patients, FitDims.Genes, FitDims.GOTerms, len(m.Coeffs))
	return m, nil
}
