package plan_test

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"github.com/genbase/genbase/internal/engine"
	"github.com/genbase/genbase/internal/linalg"
	"github.com/genbase/genbase/internal/plan"
)

// swapNodes returns a copy of pl with nodes a and b traded and every input
// index remapped to follow them.
func swapNodes(pl *plan.Plan, a, b int) *plan.Plan {
	out := &plan.Plan{Query: pl.Query, Nodes: make([]plan.Node, len(pl.Nodes))}
	move := func(i int) int {
		switch i {
		case a:
			return b
		case b:
			return a
		}
		return i
	}
	for i, n := range pl.Nodes {
		n.Inputs = append([]int(nil), n.Inputs...)
		for j, in := range n.Inputs {
			if in >= 0 {
				n.Inputs[j] = move(in)
			}
		}
		out.Nodes[move(i)] = n
	}
	return out
}

// Q6's two leaf selections commute: running the patients selection first
// instead of the compiled genes-first order yields a bitwise-identical
// answer. This is why Compile's order needs no ordering pass.
func TestQ6LeafSelectionsCommute(t *testing.T) {
	eng := fuzzEngine(t)
	pl, err := plan.Compile(engine.Q6CohortRegression, engine.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	swapped := swapNodes(pl, 0, 1)
	if swapped.Nodes[0].Table != plan.TablePatients || swapped.Nodes[1].Table != plan.TableGenes {
		t.Fatalf("swap did not put the patients selection first: %+v", swapped.Nodes[:2])
	}
	for i, n := range swapped.Nodes {
		for _, in := range n.Inputs {
			if in >= i {
				t.Fatalf("swapped plan has a forward edge at #%d", i)
			}
		}
	}
	a, err := plan.Execute[*linalg.Matrix](context.Background(), eng, pl)
	if err != nil {
		t.Fatal(err)
	}
	b, err := plan.Execute[*linalg.Matrix](context.Background(), eng, swapped)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Answer, b.Answer) {
		t.Fatalf("selection order changed the answer:\n genes first    %+v\n patients first %+v", a.Answer, b.Answer)
	}
}

// Which Q6 requests fail does not depend on the order of its guards: a
// request fails if either selection comes up short. The compiled order only
// decides which guard a request failing both reports.
func TestQ6EitherGuardFailsTheRequest(t *testing.T) {
	eng := fuzzEngine(t)
	const genesGuard, cohortGuard = "no genes pass function < 0", "fewer than two cohort patients"
	cases := []struct {
		name        string
		noGenes     bool
		noCohort    bool
		wantErrPart string
	}{
		{"both guards pass", false, false, ""},
		{"genes guard fails", true, false, genesGuard},
		{"cohort guard fails", false, true, cohortGuard},
		{"both guards fail", true, true, genesGuard},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := engine.DefaultParams()
			if c.noGenes {
				p.CohortFunctionThreshold = 0
			}
			if c.noCohort {
				p.DiseaseID = -1
			}
			pl, err := plan.Compile(engine.Q6CohortRegression, p)
			if err != nil {
				t.Fatal(err)
			}
			_, err = plan.Execute[*linalg.Matrix](context.Background(), eng, pl)
			switch {
			case c.wantErrPart == "" && err != nil:
				t.Fatalf("want an answer, got %v", err)
			case c.wantErrPart != "" && (err == nil || !strings.Contains(err.Error(), c.wantErrPart)):
				t.Fatalf("got %v, want an error naming %q", err, c.wantErrPart)
			}
		})
	}
}
