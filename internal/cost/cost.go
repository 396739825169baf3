// Package cost is the cost model behind the serving fleet's router
// (DESIGN.md §16). The paper's contribution is a cross-engine comparison —
// the same genomics queries run on a row store, a column store, an array
// DBMS, R and MapReduce, and no single engine wins everywhere. This package
// turns that comparison into an optimizer input: for a compiled plan
// (internal/plan) and a configuration ("colstore-udf", "scidb@4n", …) it
// predicts the wall-clock cost of executing the plan there, so the router
// (internal/serve.Router) can send each request to the configuration
// predicted cheapest for it.
//
// The model is deliberately simple and fully deterministic:
//
//   - Each plan operator has a selectivity-free work-unit formula (Units):
//     structural functions of the dataset dimensions and the parameters baked
//     into the plan node — no table statistics, following the "statistics
//     unnecessary" greedy-ordering argument of the janus-datalog join work.
//     Selections are charged their full input table (an upper bound, because
//     without statistics the output cardinality is unknowable), kernels their
//     dense flop shapes.
//   - Each configuration carries two rates: nanoseconds per data-management
//     unit and nanoseconds per kernel unit. They are the committed table
//     coeffs.json (coeffs.go), read by Default; nothing regenerates it. Every
//     configuration's two rates stand in the same proportion, so the table
//     prices a plan as a per-configuration scalar times a plan-only work
//     total.
//   - Online (online.go) is the measured table the router ranks by: the
//     committed total scaled by one observed/predicted wall-clock ratio per
//     (configuration, query), fed by an explicit warm-up and never by served
//     traffic.
//
// The absolute numbers matter less than the ranking: the router needs "which
// configuration is cheapest for THIS plan". The committed table prices
// PLANS.txt, cold start and every cell the warm-up did not measure.
package cost

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"github.com/genbase/genbase/internal/plan"
)

// Config identifies one routable configuration: a system and a cluster size,
// the two dimensions the serving fleet can pick between per request.
type Config struct {
	// System is the configuration name ("colstore-udf", "pbdr", …).
	System string
	// Nodes is the virtual-cluster size; 0 or 1 means the single-node engine.
	Nodes int
}

// Key renders the canonical coefficient-table key: the system name, plus
// "@Nn" for cluster variants (matching the golden-answer key convention).
func (c Config) Key() string {
	if c.Nodes > 1 {
		return fmt.Sprintf("%s@%dn", c.System, c.Nodes)
	}
	return c.System
}

// Dims is the loaded dataset shape the work-unit formulas scale with.
type Dims struct {
	Patients, Genes, GOTerms int
}

// opClass splits the operator vocabulary the way the table prices it:
// data management (scans, selections, pivots, answer joins) versus kernels.
func opClass(k plan.OpKind) int {
	switch k {
	case plan.OpKernelRegression, plan.OpKernelCovariance, plan.OpKernelSVD,
		plan.OpKernelBicluster, plan.OpKernelStats:
		return classKernel
	}
	return classDM
}

const (
	classDM = iota
	classKernel
)

// Units is the selectivity-free work-unit formula: a structural estimate of
// one operator's work given the dataset dimensions and the parameters baked
// into the plan node, with no table statistics. Selections charge their full
// input table; pivots and kernels charge dense shapes over the full
// microarray (restricting selections shrink them in reality — but by how
// much is exactly the statistic we refuse to assume; the bound is the same
// for every configuration, so it cancels out of the ranking).
func Units(n *plan.Node, d Dims) float64 {
	P, G, T := float64(d.Patients), float64(d.Genes), float64(d.GOTerms)
	if P < 1 {
		P = 1
	}
	if G < 1 {
		G = 1
	}
	if T < 1 {
		T = 1
	}
	switch n.Kind {
	case plan.OpSelectPred:
		rows := G
		if n.Table == plan.TablePatients {
			rows = P
		}
		return rows * float64(max(len(n.Preds), 1))
	case plan.OpScanTable:
		switch n.Table {
		case plan.TablePatients:
			return P
		case plan.TableGO:
			return T * G // membership lists are per-term gene sets
		default:
			return G
		}
	case plan.OpSamplePatients:
		return 1
	case plan.OpPivotMicro:
		if n.Agg == plan.AggColMeans {
			step := float64(max(n.Step, 1))
			return P / step * G
		}
		return P * G
	case plan.OpKernelRegression:
		// X'X Gram plus the triangular solve.
		return P*G + G*G
	case plan.OpKernelCovariance:
		return P * G * G
	case plan.OpKernelSVD:
		return float64(max(n.K, 1)) * P * G
	case plan.OpKernelBicluster:
		return float64(max(n.MaxBiclusters, 1)) * P * G
	case plan.OpKernelStats:
		return T * G
	case plan.OpTopKByAbs:
		return G * G
	case plan.OpEmit:
		return 0
	}
	return 1
}

// Coeff is one configuration's cost rates.
type Coeff struct {
	// DMNsPerUnit and KernelNsPerUnit are nanoseconds per work unit for the
	// two operator classes.
	DMNsPerUnit     float64 `json:"dm_ns_per_unit"`
	KernelNsPerUnit float64 `json:"kernel_ns_per_unit"`
	// Source records how the rates were fit ("pipeline-lsq", "serve-prior",
	// "alias:scidb", …) — provenance for the committed file, unused at
	// runtime.
	Source string `json:"source"`
}

// Model maps configuration keys to cost rates. Default returns the
// committed table.
type Model struct {
	Coeffs map[string]Coeff `json:"coeffs"`
	// Header states the committed table's provenance.
	Header string `json:"header,omitempty"`
}

// Estimate is a predicted plan execution cost.
type Estimate struct {
	// TotalNs is the predicted wall-clock nanoseconds.
	TotalNs float64
	// PerOpNs aligns with the plan's node order.
	PerOpNs []float64
}

// Lookup resolves the coefficients for a configuration, walking a
// deterministic fallback chain when the table has no entry for its key: the
// same system at other node counts, single-node included (nearest count,
// larger preferred on ties), then the median of every listed configuration.
// ok is false only for an empty model.
func (m *Model) Lookup(c Config) (Coeff, bool) {
	if m == nil || len(m.Coeffs) == 0 {
		return Coeff{}, false
	}
	if co, ok := m.Coeffs[c.Key()]; ok {
		return co, true
	}
	// Same system, any listed node count: nearest, larger on ties.
	prefix := c.System + "@"
	best := ""
	bestDist := math.MaxInt
	for k := range m.Coeffs {
		if k != c.System && !strings.HasPrefix(k, prefix) {
			continue
		}
		n := 1
		if i := strings.Index(k, "@"); i >= 0 {
			fmt.Sscanf(k[i+1:], "%dn", &n)
		}
		d := n - max(c.Nodes, 1)
		if d < 0 {
			d = -d
		}
		if d < bestDist || (d == bestDist && k > best) {
			best, bestDist = k, d
		}
	}
	if best != "" {
		return m.Coeffs[best], true
	}
	return m.median(), true
}

// median returns the per-class median rate over every listed configuration —
// the fallback for systems the table does not list at all.
func (m *Model) median() Coeff {
	keys := make([]string, 0, len(m.Coeffs))
	for k := range m.Coeffs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	dm := make([]float64, 0, len(keys))
	kn := make([]float64, 0, len(keys))
	for _, k := range keys {
		dm = append(dm, m.Coeffs[k].DMNsPerUnit)
		kn = append(kn, m.Coeffs[k].KernelNsPerUnit)
	}
	sort.Float64s(dm)
	sort.Float64s(kn)
	return Coeff{DMNsPerUnit: dm[len(dm)/2], KernelNsPerUnit: kn[len(kn)/2], Source: "median"}
}

// Estimate predicts the cost of executing a compiled plan on a
// configuration: each operator's work units times the configuration's rate
// for the operator's class. The estimate is selectivity-free and
// deterministic — same plan, same config, same dims, same answer.
func (m *Model) Estimate(pl *plan.Plan, c Config, d Dims) (Estimate, bool) {
	co, ok := m.Lookup(c)
	if !ok {
		return Estimate{}, false
	}
	perOp := make([]float64, len(pl.Nodes))
	return Estimate{TotalNs: co.total(pl, d, perOp), PerOpNs: perOp}, true
}

// total sums pl's operator costs at co's rates in node order, storing each
// one in perOp when perOp is not nil. Model and Online both price through
// it, so an unobserved Online total is the Model's bit for bit.
func (co Coeff) total(pl *plan.Plan, d Dims, perOp []float64) float64 {
	var sum float64
	for i := range pl.Nodes {
		n := &pl.Nodes[i]
		rate := co.DMNsPerUnit
		if opClass(n.Kind) == classKernel {
			rate = co.KernelNsPerUnit
		}
		ns := Units(n, d) * rate
		if perOp != nil {
			perOp[i] = ns
		}
		sum += ns
	}
	return sum
}
