// Package plan is the logical query-plan layer: a small operator IR that a
// planner compiles (engine.QueryID, engine.Params) into, and a generic
// executor that runs the compiled DAG against any engine's registered
// physical operators.
//
// Before this layer, every engine re-implemented the paper's five queries as
// private hardcoded methods — the same regression/covariance/biclustering/
// svd/statistics pipelines appeared near-identically in rowstore, colstore,
// arraydb, rengine and mapreduce, so each new workload cost five duplicated
// implementations and five chances to diverge. Now a query is compiled once
// into a shared plan; engines only implement the physical operators
// (selection-vector scans for the column store, heap and sidecar scans for
// the row store, chunked gathers for the array store, MR jobs for Hadoop), and a new
// scenario is a planner-only change (see Q6CohortRegression).
//
// The IR (ISSUE: ScanTable, SelectPred, SamplePatients, PivotMicro,
// Kernel{Regression|Covariance|SVD|Bicluster|Stats}, TopKByAbs, Emit)
// deliberately sits at the paper's altitude: operators correspond to the
// query steps of §3.2 (select by metadata, restructure as a matrix, run the
// analytics kernel, join the result back), not to low-level relational
// algebra. Each node carries a phase tag (data management / analytics /
// transfer) that replaces the hand-placed StopWatch calls the engines used
// to scatter through their query methods; kernel operators own their phase
// transitions internally because the transfer boundary (the "+R" text COPY
// stream, the UDF hand-off, the coprocessor offload) lives inside them.
package plan

import (
	"fmt"
	"strings"
)

// OpKind names a logical operator.
type OpKind int

// The operator vocabulary. Every plan is a DAG of these.
const (
	// OpScanTable projects one column of a metadata table: patients'
	// drug-response vector (optionally gathered through a patient
	// selection), the gene-function metadata used by Q2's final join, or the
	// GO membership lists.
	OpScanTable OpKind = iota
	// OpSelectPred evaluates a conjunctive predicate over a metadata table
	// and yields ascending entity ids.
	OpSelectPred
	// OpSamplePatients yields the deterministic patient sample modulus
	// (engine.Params.SamplePatientStep) feeding Q5's aggregate pivot.
	OpSamplePatients
	// OpPivotMicro restructures the microarray into a dense patient×gene
	// matrix for the given patient/gene selections — the paper's "join, then
	// restructure as a matrix" step. With AggColMeans it instead folds the
	// pivot into per-gene means over the sampled patients (Q5's fused
	// filter+aggregate; no engine materializes that pivot).
	OpPivotMicro
	// OpKernelRegression fits drug response on the pivot by least squares.
	OpKernelRegression
	// OpKernelCovariance computes the gene-gene covariance matrix.
	OpKernelCovariance
	// OpKernelSVD computes the top-k singular values.
	OpKernelSVD
	// OpKernelBicluster runs Cheng–Church biclustering.
	OpKernelBicluster
	// OpKernelStats runs the per-GO-term Wilcoxon enrichment test.
	OpKernelStats
	// OpTopKByAbs thresholds the covariance matrix to the top fraction of
	// |cov| pairs and joins them with gene metadata (Q2 steps 3–4). It is
	// executed generically — engine.SummarizeCovariance — so every engine's
	// answer assembly is identical by construction.
	OpTopKByAbs
	// OpEmit assembles the engine-neutral answer struct from the upstream
	// node values.
	OpEmit

	numOpKinds
)

func (k OpKind) String() string {
	switch k {
	case OpScanTable:
		return "ScanTable"
	case OpSelectPred:
		return "SelectPred"
	case OpSamplePatients:
		return "SamplePatients"
	case OpPivotMicro:
		return "PivotMicro"
	case OpKernelRegression:
		return "Kernel[regression]"
	case OpKernelCovariance:
		return "Kernel[covariance]"
	case OpKernelSVD:
		return "Kernel[svd]"
	case OpKernelBicluster:
		return "Kernel[bicluster]"
	case OpKernelStats:
		return "Kernel[stats]"
	case OpTopKByAbs:
		return "TopKByAbs"
	case OpEmit:
		return "Emit"
	default:
		return fmt.Sprintf("op(%d)", int(k))
	}
}

// Phase tags a node with the paper's cost category. The executor switches
// the query StopWatch at node boundaries, replacing the hand-placed
// StartDM/StartAnalytics/StartTransfer calls of the pre-plan engines.
type Phase int

const (
	// PhaseDM is data management: scans, selections, pivots, answer joins.
	PhaseDM Phase = iota
	// PhaseKernel marks operators that own their phase transitions: the
	// physical kernel switches to transfer for its glue boundary and to
	// analytics for compute (or books modeled coprocessor time), exactly as
	// each configuration requires.
	PhaseKernel
)

func (p Phase) String() string {
	if p == PhaseKernel {
		return "kernel"
	}
	return "dm"
}

// CmpOp is a predicate comparison.
type CmpOp int

// The comparisons the benchmark's metadata predicates need.
const (
	CmpLT CmpOp = iota // column < value
	CmpEQ              // column == value
)

// Pred is one column comparison; a SelectPred node holds a conjunction.
type Pred struct {
	Col string
	Op  CmpOp
	Val int64
}

// Eval applies the predicate to a column value.
func (p Pred) Eval(v int64) bool {
	if p.Op == CmpEQ {
		return v == p.Val
	}
	return v < p.Val
}

func (p Pred) String() string {
	op := "<"
	if p.Op == CmpEQ {
		op = "="
	}
	return fmt.Sprintf("%s%s%d", p.Col, op, p.Val)
}

// AggKind selects PivotMicro's output shape.
type AggKind int

const (
	// AggNone materializes the dense pivot matrix.
	AggNone AggKind = iota
	// AggColMeans folds the pivot into per-gene means over the sampled
	// patients (Q5). Engines implement it fused — none materializes the
	// sampled pivot first.
	AggColMeans
)

// Table and column names of the benchmark's neutral schema, as the IR
// refers to them.
const (
	TableGenes    = "genes"
	TablePatients = "patients"
	TableGO       = "go"

	ColFunction     = "function"
	ColDiseaseID    = "diseaseid"
	ColGender       = "gender"
	ColAge          = "age"
	ColDrugResponse = "drugresponse"
	ColMembers      = "members"
)

// AnswerKind tells Emit which engine-neutral answer struct to assemble.
type AnswerKind int

const (
	AnswerRegression AnswerKind = iota
	AnswerCovariance
	AnswerBicluster
	AnswerSVD
	AnswerStats
)

// Node is one operator instance. Inputs reference upstream node indices;
// their roles are positional per kind (see the compile functions and the
// executor). -1 marks an absent optional input (e.g. "all patients" for a
// pivot axis).
type Node struct {
	Kind  OpKind
	Phase Phase

	// OpScanTable / OpSelectPred.
	Table string
	Col   string
	Preds []Pred
	// MinRows guards a selection: fewer surviving rows fail the query with
	// GuardMsg (a literal message; the executor appends the row count).
	MinRows  int
	GuardMsg string

	// OpPivotMicro.
	Agg AggKind

	// Kernel / TopK parameters (baked from engine.Params at compile time —
	// the fingerprint therefore covers exactly the parameters the query
	// uses, nothing else).
	K             int
	Seed          uint64
	MaxBiclusters int
	TopFrac       float64
	Step          int

	// OpEmit.
	Answer AnswerKind

	Inputs []int
}

// describe renders the node's operator and arguments for ExplainAnnotated and
// fingerprints.
func (n *Node) describe() string {
	var b strings.Builder
	b.WriteString(n.Kind.String())
	switch n.Kind {
	case OpScanTable:
		fmt.Fprintf(&b, "(%s.%s)", n.Table, n.Col)
	case OpSelectPred:
		preds := make([]string, len(n.Preds))
		for i, p := range n.Preds {
			preds[i] = p.String()
		}
		fmt.Fprintf(&b, "(%s: %s, min=%d)", n.Table, strings.Join(preds, " AND "), n.MinRows)
	case OpSamplePatients:
		fmt.Fprintf(&b, "(step=%d)", n.Step)
	case OpPivotMicro:
		agg := ""
		if n.Agg == AggColMeans {
			agg = ", agg=colmeans"
		}
		fmt.Fprintf(&b, "(pat=%s, gene=%s%s)", inputName(n.Inputs[0]), inputName(n.Inputs[1]), agg)
	case OpKernelSVD:
		fmt.Fprintf(&b, "(k=%d, seed=%d)", n.K, n.Seed)
	case OpKernelBicluster:
		fmt.Fprintf(&b, "(max=%d, seed=%d)", n.MaxBiclusters, n.Seed)
	case OpTopKByAbs:
		fmt.Fprintf(&b, "(frac=%g)", n.TopFrac)
	case OpEmit:
		fmt.Fprintf(&b, "(%s)", []string{"regression", "covariance", "bicluster", "svd", "stats"}[n.Answer])
	}
	return b.String()
}

func inputName(i int) string {
	if i < 0 {
		return "all"
	}
	return fmt.Sprintf("#%d", i)
}

// OpSet is a bitset of operator kinds — an engine's capability surface, or
// the operator footprint of a plan.
type OpSet uint32

// AllOps is the full operator vocabulary.
func AllOps() OpSet { return 1<<uint(numOpKinds) - 1 }

// Has reports membership.
func (s OpSet) Has(k OpKind) bool { return s&(1<<uint(k)) != 0 }

// Without removes kinds from the set.
func (s OpSet) Without(ks ...OpKind) OpSet {
	for _, k := range ks {
		s &^= 1 << uint(k)
	}
	return s
}

// Kinds lists the members in declaration order.
func (s OpSet) Kinds() []OpKind {
	var out []OpKind
	for k := OpKind(0); k < numOpKinds; k++ {
		if s.Has(k) {
			out = append(out, k)
		}
	}
	return out
}
