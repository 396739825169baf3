package cost

import (
	"math"
	"sync"

	"github.com/genbase/genbase/internal/plan"
)

// Online wraps an offline-fitted Model with serve-path refinement. The router
// feeds every uncontended request's measured wall-clock time back here
// (ObserveWall). The observation updates an EWMA correction ratio —
// observed / offline-predicted — per (configuration, operator kind,
// size-class), and Estimate multiplies each operator's offline prediction by
// its learned ratio. The offline fit seeds the ranking; the online layer
// corrects it from ground truth without ever touching the committed
// coefficients.
//
// Drift handling: when a fresh observation disagrees with the smoothed ratio
// by more than DriftThreshold (relative), the update uses the faster
// DriftAlpha instead of Alpha, so a regime change (dataset swap, host
// contention) re-converges in a few observations instead of ~1/Alpha.
type Online struct {
	base *Model
	dims Dims

	// Alpha is the steady-state EWMA weight for a new observation;
	// DriftAlpha replaces it when the observation deviates from the current
	// mean by more than DriftThreshold (relative error).
	Alpha          float64
	DriftAlpha     float64
	DriftThreshold float64

	mu    sync.Mutex
	cells map[cellKey]*cell
}

// cellKey is the refinement granularity the ISSUE prescribes: physical
// implementation (configuration key), operator, size-class. Size-class is
// log2 of the operator's work units, so a cell generalizes across parameter
// jitter but not across order-of-magnitude shape changes.
type cellKey struct {
	config string
	op     plan.OpKind
	size   int
}

type cell struct {
	ratio float64 // EWMA of observed/predicted
	n     int64   // observation count (drift restarts do not reset it)
}

// NewOnline wraps base for serve-path refinement at the given dataset shape.
func NewOnline(base *Model, d Dims) *Online {
	return &Online{
		base:           base,
		dims:           d,
		Alpha:          0.2,
		DriftAlpha:     0.5,
		DriftThreshold: 1.0,
		cells:          map[cellKey]*cell{},
	}
}

// Base returns the wrapped offline model.
func (o *Online) Base() *Model { return o.base }

// Dims returns the dataset shape estimates are computed at.
func (o *Online) Dims() Dims { return o.dims }

func sizeClass(units float64) int {
	if units < 1 {
		return 0
	}
	return int(math.Log2(units))
}

// ObserveWall feeds one completed request's measured wall-clock time back
// into the model. The virtual-platform engines (the simulated clusters, the
// accelerator) report phase Timings in their simulation's accounting, not in
// elapsed host time — but the router serves in host time, so its ranking
// must learn from the wall. A request times as a whole, so the total
// observed/predicted ratio is applied to every operator's cell uniformly.
func (o *Online) ObserveWall(c Config, pl *plan.Plan, wallNs float64) {
	base, ok := o.base.Estimate(pl, c, o.dims)
	if !ok || base.TotalNs <= 0 || wallNs <= 0 {
		return
	}
	r := wallNs / base.TotalNs
	key := c.Key()
	o.mu.Lock()
	defer o.mu.Unlock()
	for i := range pl.Nodes {
		n := &pl.Nodes[i]
		o.updateCell(cellKey{config: key, op: n.Kind, size: sizeClass(Units(n, o.dims))}, r)
	}
}

// updateCell applies one observation to a cell under the EWMA/drift policy.
// Callers hold o.mu.
func (o *Online) updateCell(ck cellKey, r float64) {
	cl, ok := o.cells[ck]
	if !ok {
		o.cells[ck] = &cell{ratio: r, n: 1}
		return
	}
	alpha := o.Alpha
	if cl.ratio > 0 && math.Abs(r-cl.ratio)/cl.ratio > o.DriftThreshold {
		alpha = o.DriftAlpha // decay the stale mean faster under drift
	}
	cl.ratio = (1-alpha)*cl.ratio + alpha*r
	cl.n++
}

// Estimate is the offline estimate with each operator's learned correction
// ratio applied. Operators with no observed cell pass through at ratio 1.
func (o *Online) Estimate(pl *plan.Plan, c Config) (Estimate, bool) {
	base, ok := o.base.Estimate(pl, c, o.dims)
	if !ok {
		return Estimate{}, false
	}
	key := c.Key()
	o.mu.Lock()
	defer o.mu.Unlock()
	est := Estimate{PerOpNs: make([]float64, len(pl.Nodes))}
	for i := range pl.Nodes {
		ns := base.PerOpNs[i]
		ck := cellKey{config: key, op: pl.Nodes[i].Kind, size: sizeClass(Units(&pl.Nodes[i], o.dims))}
		if cl, ok := o.cells[ck]; ok && cl.ratio > 0 {
			ns *= cl.ratio
		}
		est.PerOpNs[i] = ns
		est.TotalNs += ns
	}
	return est, true
}

// Ratio exposes one cell's learned correction for tests and stats dumps;
// ok is false when the cell has never been observed.
func (o *Online) Ratio(c Config, op plan.OpKind, units float64) (float64, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	cl, ok := o.cells[cellKey{config: c.Key(), op: op, size: sizeClass(units)}]
	if !ok {
		return 0, false
	}
	return cl.ratio, true
}
