package cost

import (
	"bytes"
	"os"
	"testing"

	"github.com/genbase/genbase/internal/engine"
	"github.com/genbase/genbase/internal/plan"
)

func readBench(t *testing.T, name string) []byte {
	t.Helper()
	blob, err := os.ReadFile("../../" + name)
	if err != nil {
		t.Fatalf("read %s: %v", name, err)
	}
	return blob
}

func fitFromCommitted(t *testing.T) *Model {
	t.Helper()
	m, err := Fit(readBench(t, "BENCH_pipeline.json"), readBench(t, "BENCH_kernels.json"), readBench(t, "BENCH_serve.json"))
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	return m
}

// The committed coeffs.json must be exactly what a fresh fit of the
// committed bench baselines produces — the same bytes
// `genbase-bench fit-cost` prints.
func TestFitReproducesCommittedCoefficients(t *testing.T) {
	m := fitFromCommitted(t)
	got, err := m.MarshalJSONFile()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, embeddedCoeffs) {
		t.Fatalf("fresh fit differs from committed coeffs.json; regenerate with: go run ./cmd/genbase-bench fit-cost")
	}
	// And twice over: the fit itself is deterministic.
	again, err := fitFromCommitted(t).MarshalJSONFile()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, again) {
		t.Fatal("two fits of the same bytes disagree")
	}
}

func TestFitCoefficientShapes(t *testing.T) {
	m := fitFromCommitted(t)
	wantKeys := []string{
		"vanilla-r", "postgres-madlib", "postgres-r", "colstore-r",
		"colstore-udf", "scidb", "scidb-phi", "hadoop",
		"pbdr", "pbdr@2n", "pbdr@4n",
		"colstore-pbdr", "colstore-pbdr@2n", "colstore-pbdr@4n",
		"colstore-udf@2n", "colstore-udf@4n", "scidb@2n", "scidb@4n",
	}
	for _, k := range wantKeys {
		co, ok := m.Coeffs[k]
		if !ok {
			t.Errorf("missing coefficient for %s", k)
			continue
		}
		if co.DMNsPerUnit <= 0 || co.KernelNsPerUnit <= 0 {
			t.Errorf("%s: non-positive rates %+v", k, co)
		}
	}
	if len(m.Coeffs) != len(wantKeys) {
		t.Errorf("fit produced %d keys, want %d", len(m.Coeffs), len(wantKeys))
	}
	if src := m.Coeffs["colstore-udf"].Source; src != "pipeline-lsq" {
		t.Errorf("colstore-udf should be solved from its two pipelines, got source %q", src)
	}
	if m.Coeffs["scidb-phi"] != (Coeff{
		DMNsPerUnit:     m.Coeffs["scidb"].DMNsPerUnit,
		KernelNsPerUnit: m.Coeffs["scidb"].KernelNsPerUnit,
		Source:          "alias:scidb",
	}) {
		t.Error("scidb-phi should alias scidb's rates")
	}
	if m.ParallelKernelScale <= 0 {
		t.Error("missing parallel kernel scale from BENCH_kernels.json")
	}
	// The serve bench makes hadoop's MapReduce simulation ~50-100x slower
	// than the fast engines; the fit must preserve that ordering.
	if m.Coeffs["hadoop"].DMNsPerUnit < 10*m.Coeffs["colstore-udf"].DMNsPerUnit {
		t.Error("hadoop should fit far slower than colstore-udf")
	}
}

func TestFitRejectsBadJSON(t *testing.T) {
	good := []byte(`{"results":[]}`)
	for i := 0; i < 3; i++ {
		in := [][]byte{good, good, good}
		in[i] = []byte("{")
		if _, err := Fit(in[0], in[1], in[2]); err == nil {
			t.Errorf("Fit accepted malformed input %d", i)
		}
	}
	// All-empty inputs still fit (an empty but valid model).
	m, err := Fit(good, good, good)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Coeffs) != 0 {
		t.Errorf("empty benches produced %d keys", len(m.Coeffs))
	}
}

func TestConfigKey(t *testing.T) {
	cases := []struct {
		c    Config
		want string
	}{
		{Config{System: "scidb"}, "scidb"},
		{Config{System: "scidb", Nodes: 1}, "scidb"},
		{Config{System: "scidb", Nodes: 4}, "scidb@4n"},
		{Config{System: "pbdr", Nodes: 2, Workers: 3}, "pbdr@2n/w3"},
		{Config{System: "vanilla-r", Workers: 2}, "vanilla-r/w2"},
	}
	for _, c := range cases {
		if got := c.c.Key(); got != c.want {
			t.Errorf("Key(%+v) = %q, want %q", c.c, got, c.want)
		}
	}
}

func TestLookupFallbackChain(t *testing.T) {
	m := fitFromCommitted(t)

	// Exact key.
	if co, ok := m.Lookup(Config{System: "pbdr", Nodes: 2}); !ok || co != m.Coeffs["pbdr@2n"] {
		t.Error("exact key lookup failed")
	}
	// Worker-pinned variants share the base configuration's coefficients.
	if co, _ := m.Lookup(Config{System: "pbdr", Nodes: 2, Workers: 4}); co != m.Coeffs["pbdr@2n"] {
		t.Error("worker-pinned lookup should strip the worker suffix")
	}
	// Unfit node count: nearest fitted count for the same system.
	if co, _ := m.Lookup(Config{System: "pbdr", Nodes: 8}); co != m.Coeffs["pbdr@4n"] {
		t.Error("pbdr@8n should borrow pbdr@4n (nearest fitted count)")
	}
	// Cluster variant of a system fit only single-node: base system.
	if co, _ := m.Lookup(Config{System: "hadoop", Nodes: 4}); co != m.Coeffs["hadoop"] {
		t.Error("hadoop@4n should borrow single-node hadoop")
	}
	// scidb-phi cluster: the alias at any node count.
	if co, _ := m.Lookup(Config{System: "scidb-phi", Nodes: 4}); co != m.Coeffs["scidb-phi"] {
		t.Error("scidb-phi@4n should borrow the scidb-phi alias")
	}
	// Unknown system: the median coefficient, still usable.
	co, ok := m.Lookup(Config{System: "no-such-engine"})
	if !ok || co.DMNsPerUnit <= 0 || co.KernelNsPerUnit <= 0 {
		t.Errorf("unknown system should fall back to the median, got %+v ok=%v", co, ok)
	}
	// Empty model: the only not-ok case.
	var empty *Model
	if _, ok := empty.Lookup(Config{System: "scidb"}); ok {
		t.Error("nil model lookup should fail")
	}
	if _, ok := (&Model{}).Lookup(Config{System: "scidb"}); ok {
		t.Error("empty model lookup should fail")
	}
}

func compileQ(t *testing.T, q engine.QueryID) *plan.Plan {
	t.Helper()
	pl, err := plan.Compile(q, engine.DefaultParams())
	if err != nil {
		t.Fatalf("compile %v: %v", q, err)
	}
	return pl
}

func TestEstimateProperties(t *testing.T) {
	m := fitFromCommitted(t)
	d := FitDims
	cov := compileQ(t, engine.Q2Covariance)
	stats := compileQ(t, engine.Q5Statistics)

	for _, cfg := range []Config{{System: "colstore-udf"}, {System: "scidb", Nodes: 4}, {System: "hadoop"}} {
		ec, ok := m.Estimate(cov, cfg, d)
		if !ok || ec.TotalNs <= 0 {
			t.Fatalf("%s: no covariance estimate", cfg.Key())
		}
		if len(ec.PerOpNs) != len(cov.Nodes) {
			t.Fatalf("%s: per-op vector length %d, want %d", cfg.Key(), len(ec.PerOpNs), len(cov.Nodes))
		}
		var sum float64
		for _, ns := range ec.PerOpNs {
			sum += ns
		}
		if sum != ec.TotalNs {
			t.Errorf("%s: per-op costs do not sum to the total", cfg.Key())
		}
		es, _ := m.Estimate(stats, cfg, d)
		if es.TotalNs >= ec.TotalNs {
			t.Errorf("%s: statistics (%.0f ns) should be cheaper than covariance (%.0f ns)", cfg.Key(), es.TotalNs, ec.TotalNs)
		}
	}

	// Larger data → larger estimate.
	small, _ := m.Estimate(cov, Config{System: "scidb"}, d)
	large, _ := m.Estimate(cov, Config{System: "scidb"}, Dims{Patients: 2000, Genes: 1500, GOTerms: 400})
	if large.TotalNs <= small.TotalNs {
		t.Error("estimate should grow with dataset dimensions")
	}

	// Worker-pinned estimates apply the measured parallel kernel scale.
	base, _ := m.Estimate(cov, Config{System: "scidb"}, d)
	pinned, _ := m.Estimate(cov, Config{System: "scidb", Workers: 4}, d)
	if m.ParallelKernelScale > 1 && pinned.TotalNs <= base.TotalNs {
		t.Error("worker-pinned estimate should reflect the >1 oversubscription scale")
	}

	// The fit must preserve the bench's headline ordering on the serve mix:
	// hadoop is far costlier than every fast engine.
	fast, _ := m.Estimate(cov, Config{System: "colstore-udf"}, d)
	slow, _ := m.Estimate(cov, Config{System: "hadoop"}, d)
	if slow.TotalNs < 10*fast.TotalNs {
		t.Error("hadoop estimate should dominate colstore-udf")
	}
}

func TestUnitsFormulas(t *testing.T) {
	d := Dims{Patients: 100, Genes: 50, GOTerms: 10}
	cases := []struct {
		name string
		n    plan.Node
		want float64
	}{
		{"select-patients-2preds", plan.Node{Kind: plan.OpSelectPred, Table: plan.TablePatients, Preds: []plan.Pred{{}, {}}}, 200},
		{"select-genes-default-pred", plan.Node{Kind: plan.OpSelectPred, Table: plan.TableGenes}, 50},
		{"scan-patients", plan.Node{Kind: plan.OpScanTable, Table: plan.TablePatients}, 100},
		{"scan-genes", plan.Node{Kind: plan.OpScanTable, Table: plan.TableGenes}, 50},
		{"scan-go", plan.Node{Kind: plan.OpScanTable, Table: plan.TableGO}, 500},
		{"sample", plan.Node{Kind: plan.OpSamplePatients}, 1},
		{"pivot", plan.Node{Kind: plan.OpPivotMicro}, 5000},
		{"pivot-colmeans-step2", plan.Node{Kind: plan.OpPivotMicro, Agg: plan.AggColMeans, Step: 2}, 2500},
		{"regression", plan.Node{Kind: plan.OpKernelRegression}, 100*50 + 50*50},
		{"covariance", plan.Node{Kind: plan.OpKernelCovariance}, 100 * 50 * 50},
		{"svd-k3", plan.Node{Kind: plan.OpKernelSVD, K: 3}, 3 * 100 * 50},
		{"bicluster", plan.Node{Kind: plan.OpKernelBicluster, MaxBiclusters: 2}, 2 * 100 * 50},
		{"stats", plan.Node{Kind: plan.OpKernelStats}, 500},
		{"topk", plan.Node{Kind: plan.OpTopKByAbs}, 2500},
		{"emit", plan.Node{Kind: plan.OpEmit}, 0},
	}
	for _, c := range cases {
		if got := Units(&c.n, d); got != c.want {
			t.Errorf("%s: Units = %v, want %v", c.name, got, c.want)
		}
	}
	// Degenerate dims clamp to 1 instead of zeroing every estimate.
	if got := Units(&plan.Node{Kind: plan.OpPivotMicro}, Dims{}); got != 1 {
		t.Errorf("zero dims should clamp to 1 unit, got %v", got)
	}
}

func TestDefaultModelLoads(t *testing.T) {
	m := Default()
	if len(m.Coeffs) == 0 {
		t.Fatal("committed model is empty")
	}
	if m != Default() {
		t.Error("Default should return the same parsed model")
	}
	if _, err := Load(); err != nil {
		t.Fatal(err)
	}
}

func TestOnlineRefinement(t *testing.T) {
	m := fitFromCommitted(t)
	o := NewOnline(m, FitDims)
	cfg := Config{System: "colstore-udf"}
	pl := compileQ(t, engine.Q2Covariance)

	base, _ := o.Estimate(pl, cfg)
	off, _ := m.Estimate(pl, cfg, FitDims)
	if base.TotalNs != off.TotalNs {
		t.Fatal("unobserved online estimate should equal the offline estimate")
	}

	// Feed wall-clock observations at 3x the predicted cost; the estimate
	// must move toward 3x, monotonically.
	prev := base.TotalNs
	for i := 0; i < 20; i++ {
		o.ObserveWall(cfg, pl, 3*off.TotalNs)
		est, _ := o.Estimate(pl, cfg)
		if est.TotalNs < prev-1 {
			t.Fatalf("estimate moved away from the observations at step %d", i)
		}
		prev = est.TotalNs
	}
	if prev < 2.5*base.TotalNs || prev > 3.5*base.TotalNs {
		t.Errorf("after 20 observations of 3x cost, estimate is %.2fx the base", prev/base.TotalNs)
	}

	// Other configurations are untouched.
	other, _ := o.Estimate(pl, Config{System: "scidb"})
	otherOff, _ := m.Estimate(pl, Config{System: "scidb"}, FitDims)
	if other.TotalNs != otherOff.TotalNs {
		t.Error("observations for one configuration leaked into another")
	}

	// A learned ratio is inspectable.
	var kernelOp *plan.Node
	for i := range pl.Nodes {
		if opClass(pl.Nodes[i].Kind) == classKernel {
			kernelOp = &pl.Nodes[i]
			break
		}
	}
	if r, ok := o.Ratio(cfg, kernelOp.Kind, Units(kernelOp, FitDims)); !ok || r < 2.5 {
		t.Errorf("kernel ratio = %v ok=%v, want ~3", r, ok)
	}
	if _, ok := o.Ratio(Config{System: "scidb"}, kernelOp.Kind, Units(kernelOp, FitDims)); ok {
		t.Error("unobserved cell should report not-ok")
	}
}

func TestOnlineDriftDecaysFaster(t *testing.T) {
	m := fitFromCommitted(t)
	cfg := Config{System: "scidb"}
	pl := compileQ(t, engine.Q5Statistics)
	off, _ := m.Estimate(pl, cfg, FitDims)

	run := func(driftAlpha float64) float64 {
		o := NewOnline(m, FitDims)
		o.DriftAlpha = driftAlpha
		// Converge near 1x, then shift the regime to 10x: past the drift
		// threshold, so the faster alpha applies.
		for i := 0; i < 5; i++ {
			o.ObserveWall(cfg, pl, off.TotalNs)
		}
		o.ObserveWall(cfg, pl, 10*off.TotalNs)
		est, _ := o.Estimate(pl, cfg)
		return est.TotalNs
	}

	slow := run(0.2) // drift alpha = steady alpha: no fast decay
	fast := run(0.5)
	if fast <= slow {
		t.Errorf("drift decay should converge faster: fast=%.0f slow=%.0f", fast, slow)
	}

	// A degenerate observation (no measured time, or a configuration the
	// model cannot price) must not update a cell or panic.
	o := NewOnline(m, FitDims)
	o.ObserveWall(cfg, pl, 0)
	o.ObserveWall(cfg, pl, -1)
	o.ObserveWall(Config{System: "no-such-system"}, pl, off.TotalNs)
	if est, _ := o.Estimate(pl, cfg); est.TotalNs != off.TotalNs {
		t.Errorf("degenerate observations moved the estimate: %.0f, offline %.0f", est.TotalNs, off.TotalNs)
	}
	for i := range pl.Nodes {
		if _, ok := o.Ratio(cfg, pl.Nodes[i].Kind, Units(&pl.Nodes[i], FitDims)); ok {
			t.Fatalf("degenerate observation created a cell for %v", pl.Nodes[i].Kind)
		}
	}
	if o.Base() != m || o.Dims() != FitDims {
		t.Error("accessors lost the wrapped model")
	}
}
