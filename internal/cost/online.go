package cost

import (
	"sync"

	"github.com/genbase/genbase/internal/engine"
	"github.com/genbase/genbase/internal/plan"
)

// Online is the measured table the router ranks by: the committed table
// scaled by one observed/predicted ratio per (configuration, query).
// ObserveWall records a measured solo wall time for a compiled plan, and the
// cell keeps the lowest ratio it has seen, so one slow, contended probe never
// raises it. Estimate prices every plan of that query — whatever its
// parameters — at the table's total times the cell's ratio; a cell never
// observed passes the table's total through bit for bit.
//
// Only an explicit warm-up observes: the router never feeds its own traffic
// back, so served load cannot move the ranking.
type Online struct {
	base *Model
	dims Dims

	// Alpha and DriftAlpha are inert. They weighted the per-operator
	// smoothing this table replaced, and stay so that callers which freeze
	// them still compile.
	Alpha      float64
	DriftAlpha float64

	mu     sync.Mutex
	coeffs map[Config]Coeff // each configuration's rates, resolved once
	ratios map[cell]float64 // observed/predicted, the lowest seen
}

type cell struct {
	cfg Config
	q   engine.QueryID
}

// NewOnline wraps base, which must not change afterwards, as a measured
// table at the given dataset shape.
func NewOnline(base *Model, d Dims) *Online {
	return &Online{base: base, dims: d, coeffs: map[Config]Coeff{}, ratios: map[cell]float64{}}
}

// rates resolves c's coefficients, walking the table's fallback chain only
// the first time c is priced. Callers hold o.mu.
func (o *Online) rates(c Config) (Coeff, bool) {
	if co, ok := o.coeffs[c]; ok {
		return co, true
	}
	co, ok := o.base.Lookup(c)
	if ok {
		o.coeffs[c] = co
	}
	return co, ok
}

// ObserveWall records one measured wall-clock time of pl on c. The router
// serves in host time, while the virtual-platform engines report simulated
// phase timings, so the table learns from the wall. An observation that is
// not positive, or of a plan the table cannot price, records nothing.
func (o *Online) ObserveWall(c Config, pl *plan.Plan, wallNs float64) {
	if !(wallNs > 0) {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	co, ok := o.rates(c)
	if !ok {
		return
	}
	total := co.total(pl, o.dims, nil)
	if !(total > 0) {
		return
	}
	r := wallNs / total
	k := cell{c, pl.Query}
	if old, seen := o.ratios[k]; !seen || r < old {
		o.ratios[k] = r
	}
}

// Estimate prices pl on c: the table's total times the measured ratio of
// (c, pl.Query), when one was observed. It carries the total only;
// Model.Estimate gives the per-operator split.
func (o *Online) Estimate(pl *plan.Plan, c Config) (Estimate, bool) {
	o.mu.Lock()
	co, ok := o.rates(c)
	r, measured := o.ratios[cell{c, pl.Query}]
	o.mu.Unlock()
	if !ok {
		return Estimate{}, false
	}
	total := co.total(pl, o.dims, nil)
	if measured {
		total *= r
	}
	return Estimate{TotalNs: total}, true
}
