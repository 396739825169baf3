package plan

import (
	"fmt"
	"strings"
	"sync"

	"github.com/genbase/genbase/internal/engine"
)

// Plan is a compiled query: a DAG of operator nodes stored in topological
// order (the executor runs them sequentially; every input index is smaller
// than its consumer's index).
type Plan struct {
	Query engine.QueryID
	Nodes []Node
}

// Compile lowers (query, params) into the operator DAG. Parameters are
// validated here — the single admission point — so bad values are rejected
// before any engine work instead of flowing silently into kernels.
func Compile(q engine.QueryID, p engine.Params) (*Plan, error) {
	if err := p.Validate(q); err != nil {
		return nil, err
	}
	b := &builder{pl: &Plan{Query: q, Nodes: make([]Node, 0, 8)}}
	switch q {
	case engine.Q1Regression:
		genes := b.selectGenes(p.FunctionThreshold)
		x := b.pivot(-1, genes)
		y := b.scan(TablePatients, ColDrugResponse, -1)
		k := b.kernel(OpKernelRegression, x, y)
		b.emit(AnswerRegression, k, genes, -1)
	case engine.Q2Covariance:
		pats := b.add(Node{
			Kind: OpSelectPred, Table: TablePatients,
			Preds:    []Pred{{Col: ColDiseaseID, Op: CmpEQ, Val: p.DiseaseID}},
			MinRows:  2,
			GuardMsg: fmt.Sprintf("fewer than two patients with disease %d", p.DiseaseID),
		})
		x := b.pivot(pats, -1)
		cov := b.kernel(OpKernelCovariance, x)
		meta := b.scan(TableGenes, ColFunction, -1)
		top := b.add(Node{Kind: OpTopKByAbs, TopFrac: p.CovarianceTopFrac, Inputs: []int{cov, meta, pats}})
		b.emit(AnswerCovariance, top)
	case engine.Q3Biclustering:
		pats := b.add(Node{
			Kind: OpSelectPred, Table: TablePatients,
			Preds: []Pred{
				{Col: ColGender, Op: CmpEQ, Val: int64(p.Gender)},
				{Col: ColAge, Op: CmpLT, Val: p.MaxAge},
			},
			MinRows:  4,
			GuardMsg: "too few patients pass the Q3 filter",
		})
		x := b.pivot(pats, -1)
		k := b.add(Node{Kind: OpKernelBicluster, Phase: PhaseKernel,
			MaxBiclusters: p.MaxBiclusters, Seed: p.Seed, Inputs: []int{x}})
		b.emit(AnswerBicluster, k, pats)
	case engine.Q4SVD:
		genes := b.selectGenes(p.FunctionThreshold)
		x := b.pivot(-1, genes)
		k := b.add(Node{Kind: OpKernelSVD, Phase: PhaseKernel,
			K: p.SVDK, Seed: p.Seed, Inputs: []int{x}})
		b.emit(AnswerSVD, k, genes)
	case engine.Q5Statistics:
		sample := b.add(Node{Kind: OpSamplePatients, Step: p.SamplePatientStep()})
		means := b.add(Node{Kind: OpPivotMicro, Agg: AggColMeans, Inputs: []int{sample, -1}})
		members := b.scan(TableGO, ColMembers, -1)
		k := b.kernel(OpKernelStats, means, members)
		b.emit(AnswerStats, k)
	case engine.Q6CohortRegression:
		// The planner-only scenario: Q1's gene predicate (tightened for the
		// smaller population) × Q2's cohort predicate. No engine has (or
		// needs) any code for it — the DAG reuses the registered physical
		// operators as-is. Plans run in the order written here, so a request
		// failing both guards reports the genes guard; the two leaf
		// selections commute, so the order moves no answer (DESIGN.md §16).
		genes := b.selectGenes(p.CohortFunctionThreshold)
		pats := b.add(Node{
			Kind: OpSelectPred, Table: TablePatients,
			Preds:    []Pred{{Col: ColDiseaseID, Op: CmpEQ, Val: p.DiseaseID}},
			MinRows:  2,
			GuardMsg: fmt.Sprintf("fewer than two cohort patients with disease %d", p.DiseaseID),
		})
		x := b.pivot(pats, genes)
		y := b.scan(TablePatients, ColDrugResponse, pats)
		k := b.kernel(OpKernelRegression, x, y)
		b.emit(AnswerRegression, k, genes, pats)
	default:
		return nil, engine.ErrUnsupported
	}
	return b.pl, nil
}

type builder struct{ pl *Plan }

func (b *builder) add(n Node) int {
	if n.Inputs == nil {
		n.Inputs = []int{}
	}
	b.pl.Nodes = append(b.pl.Nodes, n)
	return len(b.pl.Nodes) - 1
}

func (b *builder) selectGenes(thr int64) int {
	return b.add(Node{
		Kind: OpSelectPred, Table: TableGenes,
		Preds:    []Pred{{Col: ColFunction, Op: CmpLT, Val: thr}},
		MinRows:  1,
		GuardMsg: fmt.Sprintf("no genes pass function < %d", thr),
	})
}

func (b *builder) pivot(patSel, geneSel int) int {
	return b.add(Node{Kind: OpPivotMicro, Inputs: []int{patSel, geneSel}})
}

func (b *builder) scan(table, col string, idsInput int) int {
	return b.add(Node{Kind: OpScanTable, Table: table, Col: col, Inputs: []int{idsInput}})
}

func (b *builder) kernel(kind OpKind, inputs ...int) int {
	return b.add(Node{Kind: kind, Phase: PhaseKernel, Inputs: inputs})
}

func (b *builder) emit(kind AnswerKind, inputs ...int) int {
	return b.add(Node{Kind: OpEmit, Answer: kind, Inputs: inputs})
}

// Ops returns the plan's operator footprint.
func (pl *Plan) Ops() OpSet {
	var s OpSet
	for i := range pl.Nodes {
		s |= 1 << uint(pl.Nodes[i].Kind)
	}
	return s
}

// Fingerprint is the canonical identity of the computation this plan
// performs: the operator DAG with its baked-in parameters. Two Params that
// differ only in fields the query never reads (e.g. MaxAge for Q4) compile
// to identical fingerprints, so semantically identical requests coalesce in
// the serve result cache; any parameter the query does read (thresholds,
// seeds, k) changes the fingerprint.
func (pl *Plan) Fingerprint() string {
	var b strings.Builder
	fmt.Fprintf(&b, "q%d", int(pl.Query))
	for i := range pl.Nodes {
		n := &pl.Nodes[i]
		b.WriteByte('|')
		b.WriteString(n.describe())
		if len(n.Inputs) > 0 {
			fmt.Fprintf(&b, "%v", n.Inputs)
		}
	}
	return b.String()
}

// opsFor memoizes each query's operator footprint (the plan shape is fixed
// per QueryID; parameter values never change which operators appear).
var opsFor sync.Map // engine.QueryID → OpSet

// OpsFor returns the operator footprint of a query, or ok=false for an
// unknown query.
func OpsFor(q engine.QueryID) (OpSet, bool) {
	if v, ok := opsFor.Load(q); ok {
		return v.(OpSet), true
	}
	pl, err := Compile(q, engine.DefaultParams())
	if err != nil {
		return 0, false
	}
	s := pl.Ops()
	opsFor.Store(q, s)
	return s, true
}

// Supports derives the capability answer the engines used to hardcode: an
// engine supports a query iff its registered physical operators cover the
// query's compiled footprint.
func Supports(caps OpSet, q engine.QueryID) bool {
	need, ok := OpsFor(q)
	return ok && need&^caps == 0
}
