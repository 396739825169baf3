package genbase

import (
	"context"
	"math"
	"reflect"
	"strings"
	"testing"

	"github.com/genbase/genbase/internal/core"
	"github.com/genbase/genbase/internal/datagen"
	"github.com/genbase/genbase/internal/engine"
	"github.com/genbase/genbase/internal/plan"
)

// Every operator of every scenario's compiled DAG must be implemented by at
// least one engine — otherwise the planner emits plans nothing can run.
func TestEveryScenarioSupportedBySomeEngine(t *testing.T) {
	var caps []plan.OpSet
	for _, cfg := range core.SingleNodeConfigs() {
		eng := cfg.New(1, t.TempDir())
		defer eng.Close()
		phys, ok := eng.(plan.Describer)
		if !ok {
			t.Fatalf("%s does not register physical operators", cfg.Name)
		}
		caps = append(caps, phys.Capabilities())
	}
	for _, q := range engine.AllScenarios() {
		supported := 0
		for _, c := range caps {
			if plan.Supports(c, q) {
				supported++
			}
		}
		if supported == 0 {
			t.Errorf("%s: no engine's capabilities cover the compiled plan", q)
		}
	}
}

// The sixth scenario — Q1's regression restricted to the Q2 disease cohort —
// exists only in the planner: no engine package contains any code for it
// beyond the physical operators it already registers. It must run on every
// single-node configuration (the acceptance bar is ≥ 4 engines) and the
// answers must agree across engines.
func TestCohortRegressionRunsEverywhereWithZeroEngineCode(t *testing.T) {
	ds, err := datagen.Generate(datagen.Config{Size: datagen.Small, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	p := engine.DefaultParams()

	type run struct {
		name string
		ans  *engine.RegressionAnswer
	}
	var runs []run
	var full *engine.RegressionAnswer
	for _, cfg := range core.SingleNodeConfigs() {
		eng := cfg.New(1, t.TempDir())
		defer eng.Close()
		if !eng.Supports(engine.Q6CohortRegression) {
			t.Errorf("%s does not support the cohort scenario", cfg.Name)
			continue
		}
		if err := eng.Load(ds); err != nil {
			t.Fatalf("%s load: %v", cfg.Name, err)
		}
		res, err := eng.Run(context.Background(), engine.Q6CohortRegression, p)
		if err != nil {
			t.Fatalf("%s cohort regression: %v", cfg.Name, err)
		}
		ans := res.Answer.(*engine.RegressionAnswer)
		runs = append(runs, run{cfg.Name, ans})
		// A request failing both guards reports the genes guard: plans run
		// in compile order, and Q6 selects its genes first.
		bad := p
		bad.CohortFunctionThreshold, bad.DiseaseID = 0, -1
		if _, err := eng.Run(context.Background(), engine.Q6CohortRegression, bad); err == nil ||
			!strings.Contains(err.Error(), "no genes pass function < 0") {
			t.Errorf("%s: request failing both guards: %v, want the genes guard", cfg.Name, err)
		}
		if cfg.Name == "colstore-r" {
			// Reference for the cohort restriction check: full-population Q1.
			q1, err := eng.Run(context.Background(), engine.Q1Regression, p)
			if err != nil {
				t.Fatal(err)
			}
			full = q1.Answer.(*engine.RegressionAnswer)
		}
	}
	if len(runs) < 4 {
		t.Fatalf("cohort scenario ran on %d engines, acceptance requires >= 4", len(runs))
	}

	// The cohort must be a strict subset of the population, with the same
	// gene selection as Q1.
	ref := runs[0].ans
	if full == nil {
		t.Fatal("no full-population reference")
	}
	if ref.NumPatients >= full.NumPatients || ref.NumPatients < 2 {
		t.Fatalf("cohort size %d not a proper sub-population of %d", ref.NumPatients, full.NumPatients)
	}
	// Q6's tighter gene predicate selects a nonempty subset of Q1's genes.
	q1Genes := make(map[int]bool, len(full.SelectedGenes))
	for _, g := range full.SelectedGenes {
		q1Genes[g] = true
	}
	if len(ref.SelectedGenes) == 0 || len(ref.SelectedGenes) >= len(full.SelectedGenes) {
		t.Fatalf("cohort scenario selected %d genes, want a proper subset of Q1's %d", len(ref.SelectedGenes), len(full.SelectedGenes))
	}
	for _, g := range ref.SelectedGenes {
		if !q1Genes[g] {
			t.Fatalf("cohort gene %d not in Q1's selection", g)
		}
	}
	if len(ref.Coefficients) != len(ref.SelectedGenes)+1 {
		t.Fatalf("got %d coefficients for %d genes", len(ref.Coefficients), len(ref.SelectedGenes))
	}

	// Cross-engine agreement. The QR-based engines agree to rounding; the
	// MR engine solves normal equations, so allow a small relative
	// tolerance there.
	for _, r := range runs[1:] {
		if r.ans.NumPatients != ref.NumPatients {
			t.Errorf("%s: cohort size %d, want %d", r.name, r.ans.NumPatients, ref.NumPatients)
		}
		if !reflect.DeepEqual(r.ans.SelectedGenes, ref.SelectedGenes) {
			t.Errorf("%s: gene selection diverges", r.name)
		}
		tol := 1e-9
		if r.name == "hadoop" {
			tol = 1e-6
		}
		for i, c := range r.ans.Coefficients {
			want := ref.Coefficients[i]
			if d := math.Abs(c - want); d > tol*math.Max(1, math.Abs(want)) {
				t.Errorf("%s: coefficient %d = %g, want %g (|Δ|=%g)", r.name, i, c, want, d)
				break
			}
		}
		if d := math.Abs(r.ans.RSquared - ref.RSquared); d > 1e-6 {
			t.Errorf("%s: R² %g, want %g", r.name, r.ans.RSquared, ref.RSquared)
		}
	}
}
