package cost

import (
	"math"
	"testing"

	"github.com/genbase/genbase/internal/engine"
	"github.com/genbase/genbase/internal/plan"
)

// The committed table lists the fleet's 18 configuration keys with
// positive rates, and keeps the relations its fit established.
func TestCommittedCoefficientShapes(t *testing.T) {
	m := Default()
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
		t.Errorf("table lists %d keys, want %d", len(m.Coeffs), len(wantKeys))
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
	// Hadoop's MapReduce simulation prices ~50-100x slower than the fast
	// engines.
	if m.Coeffs["hadoop"].DMNsPerUnit < 10*m.Coeffs["colstore-udf"].DMNsPerUnit {
		t.Error("hadoop should price far slower than colstore-udf")
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
	}
	for _, c := range cases {
		if got := c.c.Key(); got != c.want {
			t.Errorf("Key(%+v) = %q, want %q", c.c, got, c.want)
		}
	}
}

func TestLookupFallbackChain(t *testing.T) {
	m := Default()

	// Exact key.
	if co, ok := m.Lookup(Config{System: "pbdr", Nodes: 2}); !ok || co != m.Coeffs["pbdr@2n"] {
		t.Error("exact key lookup failed")
	}
	// Unlisted node count: nearest listed count for the same system.
	if co, _ := m.Lookup(Config{System: "pbdr", Nodes: 8}); co != m.Coeffs["pbdr@4n"] {
		t.Error("pbdr@8n should borrow pbdr@4n (nearest listed count)")
	}
	// Cluster variant of a system listed only single-node: base system.
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
	m := Default()
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

	// Hadoop is far costlier than every fast engine.
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
}

// The committed table is read strictly: a malformed, stale or degenerate
// table is an error, never a silently partial model.
func TestParseModelRejectsBadTables(t *testing.T) {
	const entry = `"scidb": {"dm_ns_per_unit": 1, "kernel_ns_per_unit": 2, "source": "x"}`
	if m, err := parseModel([]byte(`{"coeffs": {` + entry + `}}`)); err != nil || m.Coeffs["scidb"].KernelNsPerUnit != 2 {
		t.Fatalf("well-formed table: %v, %+v", err, m)
	}
	for _, c := range []struct{ name, blob string }{
		{"malformed", `{`},
		{"trailing data", `{"coeffs": {` + entry + `}} {}`},
		{"unknown table field", `{"coeffs": {` + entry + `}, "parallel_kernel_scale": 1.5}`},
		{"unknown rate field", `{"coeffs": {"scidb": {"dm_ns_per_unit": 1, "kernel_ns_per_unit": 2, "workers": 4}}}`},
		{"no configurations", `{"coeffs": {}}`},
		{"zero dm rate", `{"coeffs": {"scidb": {"dm_ns_per_unit": 0, "kernel_ns_per_unit": 2}}}`},
		{"negative kernel rate", `{"coeffs": {"scidb": {"dm_ns_per_unit": 1, "kernel_ns_per_unit": -2}}}`},
	} {
		t.Run(c.name, func(t *testing.T) {
			if m, err := parseModel([]byte(c.blob)); err == nil {
				t.Errorf("accepted %s as %+v", c.blob, m)
			}
		})
	}
}

// The measured table keeps one observed/predicted ratio per (configuration,
// query), the lowest seen, and prices everything it has not observed at the
// committed table.
func TestMeasuredTable(t *testing.T) {
	m := Default()
	o := NewOnline(m, FitDims)
	cfg := Config{System: "colstore-udf"}
	pl := compileQ(t, engine.Q4SVD)
	off, _ := m.Estimate(pl, cfg, FitDims)
	price := func(pl *plan.Plan, c Config) float64 {
		t.Helper()
		est, ok := o.Estimate(pl, c)
		if !ok {
			t.Fatalf("%s %v: no estimate", c.Key(), pl.Query)
		}
		return est.TotalNs
	}

	// Unobserved: the table, bit for bit.
	if got := price(pl, cfg); got != off.TotalNs {
		t.Fatalf("unobserved estimate %v, table %v", got, off.TotalNs)
	}

	// Observed: the plan prices at its measured wall.
	const wall = 12_345_678.0
	o.ObserveWall(cfg, pl, wall)
	r := wall / off.TotalNs
	if got := price(pl, cfg) / off.TotalNs; math.Abs(got-r) > math.Nextafter(r, math.Inf(1))-r {
		t.Errorf("observed plan prices at ratio %v, measured %v", got, r)
	}

	// Other params of the same query: the table's total, times the ratio.
	p := engine.DefaultParams()
	p.SVDK *= 3
	wide, err := plan.Compile(engine.Q4SVD, p)
	if err != nil {
		t.Fatal(err)
	}
	wideOff, _ := m.Estimate(wide, cfg, FitDims)
	if wideOff.TotalNs == off.TotalNs {
		t.Fatal("SVDK does not move the table's total; the case proves nothing")
	}
	if got := price(wide, cfg); got != wideOff.TotalNs*r {
		t.Errorf("k=%d prices at %v, want the table's %v times the ratio %v", p.SVDK, got, wideOff.TotalNs, r)
	}

	// Other configurations, including the same system at another node
	// count, and other queries on the observed configuration are untouched.
	stats := compileQ(t, engine.Q5Statistics)
	for _, c := range []struct {
		pl  *plan.Plan
		cfg Config
	}{
		{pl, Config{System: "scidb"}},
		{pl, Config{System: "colstore-udf", Nodes: 2}},
		{stats, cfg},
	} {
		want, _ := m.Estimate(c.pl, c.cfg, FitDims)
		if got := price(c.pl, c.cfg); got != want.TotalNs {
			t.Errorf("%s %v: %v after an unrelated observation, table %v", c.cfg.Key(), c.pl.Query, got, want.TotalNs)
		}
	}

	// A slower later observation does not raise the cell; a faster one
	// lowers it.
	before := price(pl, cfg)
	o.ObserveWall(cfg, pl, 2*wall)
	if got := price(pl, cfg); got != before {
		t.Errorf("a slower observation moved the cell: %v -> %v", before, got)
	}
	o.ObserveWall(cfg, pl, wall/2)
	if got := price(pl, cfg); got != off.TotalNs*(wall/2/off.TotalNs) {
		t.Errorf("a faster observation priced at %v, want %v", got, wall/2)
	}

	// Zero, negative and unpriceable observations create nothing: no
	// measured time, an empty table, a plan with no work to price.
	fresh := NewOnline(m, FitDims)
	for _, w := range []float64{0, -1, math.NaN()} {
		fresh.ObserveWall(cfg, pl, w)
	}
	fresh.ObserveWall(cfg, &plan.Plan{Query: engine.Q4SVD, Nodes: []plan.Node{{Kind: plan.OpEmit}}}, wall)
	empty := NewOnline(&Model{}, FitDims)
	empty.ObserveWall(cfg, pl, wall)
	if len(fresh.ratios) != 0 || len(empty.ratios) != 0 {
		t.Errorf("degenerate observations created cells: %v, %v", fresh.ratios, empty.ratios)
	}
	if got, _ := fresh.Estimate(pl, cfg); got.TotalNs != off.TotalNs {
		t.Errorf("degenerate observations moved the estimate: %v, table %v", got.TotalNs, off.TotalNs)
	}
	if _, ok := empty.Estimate(pl, cfg); ok {
		t.Error("an empty table priced a plan")
	}
}
