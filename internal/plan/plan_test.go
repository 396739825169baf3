package plan

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"github.com/genbase/genbase/internal/engine"
)

// NewOpSet builds a set from the listed kinds.
func NewOpSet(ks ...OpKind) OpSet {
	var s OpSet
	for _, k := range ks {
		s |= 1 << uint(k)
	}
	return s
}

// Every scenario must compile to a DAG that ends in Emit, whose edges all
// point backwards (topological order), and whose operator footprint is
// resolvable via OpsFor.
func TestEveryScenarioCompilesToWellFormedDAG(t *testing.T) {
	for _, q := range engine.AllScenarios() {
		pl, err := Compile(q, engine.DefaultParams())
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if len(pl.Nodes) == 0 {
			t.Fatalf("%s: empty plan", q)
		}
		last := pl.Nodes[len(pl.Nodes)-1]
		if last.Kind != OpEmit {
			t.Fatalf("%s: plan ends in %v, want Emit", q, last.Kind)
		}
		for i, n := range pl.Nodes {
			for _, in := range n.Inputs {
				if in >= i {
					t.Fatalf("%s: node #%d (%v) has forward edge to #%d", q, i, n.Kind, in)
				}
			}
		}
		ops, ok := OpsFor(q)
		if !ok {
			t.Fatalf("%s: OpsFor failed", q)
		}
		if ops != pl.Ops() {
			t.Fatalf("%s: OpsFor %b != plan footprint %b", q, ops, pl.Ops())
		}
	}
}

func TestCompileRejectsBadParams(t *testing.T) {
	base := engine.DefaultParams()
	cases := []struct {
		name   string
		q      engine.QueryID
		mutate func(*engine.Params)
	}{
		{"svdk zero", engine.Q4SVD, func(p *engine.Params) { p.SVDK = 0 }},
		{"svdk negative", engine.Q4SVD, func(p *engine.Params) { p.SVDK = -3 }},
		{"topfrac zero", engine.Q2Covariance, func(p *engine.Params) { p.CovarianceTopFrac = 0 }},
		{"topfrac above one", engine.Q2Covariance, func(p *engine.Params) { p.CovarianceTopFrac = 1.5 }},
		{"maxbiclusters zero", engine.Q3Biclustering, func(p *engine.Params) { p.MaxBiclusters = 0 }},
		{"samplefrac zero", engine.Q5Statistics, func(p *engine.Params) { p.SampleFrac = 0 }},
		{"samplefrac one", engine.Q5Statistics, func(p *engine.Params) { p.SampleFrac = 1 }},
	}
	for _, tc := range cases {
		p := base
		tc.mutate(&p)
		if _, err := Compile(tc.q, p); !errors.Is(err, engine.ErrBadParams) {
			t.Errorf("%s: want ErrBadParams, got %v", tc.name, err)
		}
	}
	// The same out-of-range field is irrelevant to a query that never reads
	// it: a Q1 request with a broken SVDK must still compile.
	p := base
	p.SVDK = -1
	p.SampleFrac = 0
	if _, err := Compile(engine.Q1Regression, p); err != nil {
		t.Errorf("Q1 with irrelevant bad fields: %v", err)
	}
}

func TestCompileUnknownQueryUnsupported(t *testing.T) {
	if _, err := Compile(engine.QueryID(99), engine.DefaultParams()); !errors.Is(err, engine.ErrUnsupported) {
		t.Fatalf("want ErrUnsupported, got %v", err)
	}
	if Supports(AllOps(), engine.QueryID(99)) {
		t.Fatal("Supports claimed an unknown query")
	}
}

// The fingerprint covers exactly the parameters the plan reads: irrelevant
// fields coalesce, relevant fields differentiate.
func TestFingerprintCoversOnlyRelevantParams(t *testing.T) {
	base := engine.DefaultParams()
	fp := func(q engine.QueryID, p engine.Params) string {
		pl, err := Compile(q, p)
		if err != nil {
			t.Fatal(err)
		}
		return pl.Fingerprint()
	}

	// Irrelevant: Q4 never reads MaxAge, Gender, DiseaseID, SampleFrac.
	p2 := base
	p2.MaxAge = 99
	p2.Gender = 'F'
	p2.DiseaseID++
	p2.SampleFrac = 0.5
	if fp(engine.Q4SVD, base) != fp(engine.Q4SVD, p2) {
		t.Error("Q4 fingerprint changed with irrelevant params")
	}
	// Relevant: SVDK, Seed, FunctionThreshold all feed Q4's plan.
	for name, mut := range map[string]func(*engine.Params){
		"svdk": func(p *engine.Params) { p.SVDK++ },
		"seed": func(p *engine.Params) { p.Seed++ },
		"thr":  func(p *engine.Params) { p.FunctionThreshold++ },
	} {
		p := base
		mut(&p)
		if fp(engine.Q4SVD, base) == fp(engine.Q4SVD, p) {
			t.Errorf("Q4 fingerprint ignored relevant param %s", name)
		}
	}
	// Two SampleFracs that round to the same modulus are the same
	// computation, and fingerprint as such.
	pa, pb := base, base
	pa.SampleFrac = 0.025
	pb.SampleFrac = 0.0251
	if pa.SamplePatientStep() == pb.SamplePatientStep() &&
		fp(engine.Q5Statistics, pa) != fp(engine.Q5Statistics, pb) {
		t.Error("Q5 fingerprint distinguishes SampleFracs with identical step")
	}
	// Distinct queries never collide.
	seen := map[string]engine.QueryID{}
	for _, q := range engine.AllScenarios() {
		f := fp(q, base)
		if prev, dup := seen[f]; dup {
			t.Errorf("%s and %s share a fingerprint", prev, q)
		}
		seen[f] = q
	}
}

func TestSupportsDerivedFromCapabilities(t *testing.T) {
	// A full vocabulary supports every scenario.
	for _, q := range engine.AllScenarios() {
		if !Supports(AllOps(), q) {
			t.Errorf("full capability set does not support %s", q)
		}
	}
	// Removing the bicluster kernel kills exactly Q3 — the derived
	// equivalent of the old hardcoded "Madlib/Hadoop can't bicluster".
	caps := AllOps().Without(OpKernelBicluster)
	for _, q := range engine.AllScenarios() {
		want := q != engine.Q3Biclustering
		if got := Supports(caps, q); got != want {
			t.Errorf("caps without bicluster: Supports(%s)=%v, want %v", q, got, want)
		}
	}
	// An engine with no kernels supports nothing.
	none := NewOpSet(OpScanTable, OpSelectPred, OpSamplePatients, OpPivotMicro, OpEmit)
	for _, q := range engine.AllScenarios() {
		if Supports(none, q) {
			t.Errorf("kernel-less capability set claims %s", q)
		}
	}
}

// Q6 is the planner-only scenario: its plan must reuse the existing operator
// vocabulary (a subset of Q1 ∪ Q2's operators — nothing new for engines to
// implement) and bake both predicates in.
func TestCohortRegressionIsPlannerOnly(t *testing.T) {
	q6, _ := OpsFor(engine.Q6CohortRegression)
	q1, _ := OpsFor(engine.Q1Regression)
	q2, _ := OpsFor(engine.Q2Covariance)
	if q6&^(q1|q2) != 0 {
		t.Fatalf("Q6 needs operators outside Q1 ∪ Q2: %v", (q6 &^ (q1 | q2)).Kinds())
	}
	pl, err := Compile(engine.Q6CohortRegression, engine.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	fp := pl.Fingerprint()
	for _, want := range []string{"function<", "diseaseid=", "Kernel[regression]"} {
		if !strings.Contains(fp, want) {
			t.Errorf("Q6 fingerprint %q missing %q", fp, want)
		}
	}
}

// Plans run in the order Compile writes them. Q6 selects its genes first,
// then its cohort, and every consumer's inputs point at those two slots.
func TestQ6CompilesGenesSelectionFirst(t *testing.T) {
	pl, err := Compile(engine.Q6CohortRegression, engine.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	genes, pats := &pl.Nodes[0], &pl.Nodes[1]
	if genes.Kind != OpSelectPred || genes.Table != TableGenes || genes.Preds[0].Op != CmpLT {
		t.Fatalf("node #0 should be the range genes selection, got %s", genes.describe())
	}
	if pats.Kind != OpSelectPred || pats.Table != TablePatients || pats.Preds[0].Op != CmpEQ {
		t.Fatalf("node #1 should be the equality patients selection, got %s", pats.describe())
	}
	for i := range pl.Nodes {
		n := &pl.Nodes[i]
		switch n.Kind {
		case OpPivotMicro:
			if !reflect.DeepEqual(n.Inputs, []int{1, 0}) {
				t.Errorf("pivot inputs %v, want (patients #1, genes #0)", n.Inputs)
			}
		case OpScanTable:
			if !reflect.DeepEqual(n.Inputs, []int{1}) {
				t.Errorf("response scan inputs %v, want the patients selection #1", n.Inputs)
			}
		case OpEmit:
			if got := n.Inputs[1:]; !reflect.DeepEqual(got, []int{0, 1}) {
				t.Errorf("emit id inputs %v, want (genes #0, patients #1)", got)
			}
		}
	}
}

// Compiling the same request twice yields the same plan, node for node, so
// equal requests share a fingerprint and a cache entry.
func TestCompileIsDeterministic(t *testing.T) {
	for _, q := range engine.AllScenarios() {
		a, err := Compile(q, engine.DefaultParams())
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		b, _ := Compile(q, engine.DefaultParams())
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two compiles differ:\n%+v\n%+v", q, a.Nodes, b.Nodes)
		}
		if a.Fingerprint() != b.Fingerprint() {
			t.Errorf("%s: two compiles fingerprint differently", q)
		}
	}
}

// Every metadata selection Compile writes is a leaf: it reads only its base
// table, never another node's output. That is what lets leaf selections
// commute (DESIGN.md §16) — none can change what another one sees.
func TestSelectionsAreLeaves(t *testing.T) {
	for _, q := range engine.AllScenarios() {
		pl, err := Compile(q, engine.DefaultParams())
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		for i := range pl.Nodes {
			n := &pl.Nodes[i]
			if n.Kind != OpSelectPred && n.Kind != OpSamplePatients {
				continue
			}
			for _, in := range n.Inputs {
				if in >= 0 {
					t.Errorf("%s: selection #%d (%s) consumes node #%d", q, i, n.describe(), in)
				}
			}
		}
	}
}
