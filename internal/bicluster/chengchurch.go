// Package bicluster implements the Cheng–Church δ-biclustering algorithm
// used by GenBase's Q3. Biclustering simultaneously clusters rows (patients)
// and columns (genes) of the expression matrix into sub-matrices whose
// entries follow a consistent additive pattern, measured by the mean squared
// residue (MSR). It is the from-scratch stand-in for R's biclust package.
package bicluster

import (
	"context"
	"errors"
	"math"
	"slices"

	"github.com/genbase/genbase/internal/linalg"
)

// Bicluster identifies one discovered sub-matrix by its row and column
// indices into the input matrix, along with its final mean squared residue.
type Bicluster struct {
	Rows []int
	Cols []int
	MSR  float64
}

// Options configures the Cheng–Church run.
type Options struct {
	// Delta is the MSR threshold a bicluster must reach. If 0, it is set to
	// 0.05 × the variance of the input matrix (scale-aware default).
	Delta float64
	// Alpha is the multiple-node-deletion aggressiveness (paper default 1.2).
	Alpha float64
	// MaxBiclusters bounds how many biclusters to extract (default 5).
	MaxBiclusters int
	// MinRows/MinCols stop deletion below this size (default 2).
	MinRows, MinCols int
	// Seed drives the random masking of found biclusters.
	Seed uint64
}

// WithDefaults returns a copy of o with unset fields resolved against the
// matrix (Delta's default is scale-aware). Engines that drive the
// bicluster-by-bicluster loop themselves (the column store's UDF interface)
// call this once on the original matrix so every FindOne call uses the same
// thresholds Run would.
func (o Options) WithDefaults(m *linalg.Matrix) Options {
	o.setDefaults(m)
	return o
}

func (o *Options) setDefaults(m *linalg.Matrix) {
	if o.Alpha <= 1 {
		o.Alpha = 1.2
	}
	if o.MaxBiclusters <= 0 {
		o.MaxBiclusters = 5
	}
	if o.MinRows < 2 {
		o.MinRows = 2
	}
	if o.MinCols < 2 {
		o.MinCols = 2
	}
	if o.Delta <= 0 {
		// Scale-aware default: a fraction of the overall matrix variance.
		var sum, sumSq float64
		n := float64(m.Rows * m.Cols)
		for i := 0; i < m.Rows; i++ {
			for _, v := range m.Row(i) {
				sum += v
				sumSq += v * v
			}
		}
		mean := sum / n
		variance := sumSq/n - mean*mean
		o.Delta = 0.05 * variance
		if o.Delta <= 0 {
			o.Delta = 1e-9
		}
	}
}

// Masker replaces a found bicluster's cells with deterministic random noise
// so subsequent searches find new structure. The noise range spans the
// original data.
type Masker struct {
	rng    func() float64
	lo, hi float64
}

// NewMasker prepares masking for the original matrix m under the given seed.
func NewMasker(m *linalg.Matrix, seed uint64) *Masker {
	lo, hi := matrixRange(m)
	if hi <= lo {
		hi = lo + 1
	}
	return &Masker{rng: splitMix64(seed ^ 0x5851f42d4c957f2d), lo: lo, hi: hi}
}

// Mask overwrites the bicluster's cells in work.
func (mk *Masker) Mask(work *linalg.Matrix, bc *Bicluster) {
	for _, i := range bc.Rows {
		for _, j := range bc.Cols {
			work.Set(i, j, mk.lo+(mk.hi-mk.lo)*mk.rng())
		}
	}
}

// FindOne runs a single Cheng–Church search (multiple node deletion, single
// node deletion, node addition) on the working matrix. opts must already
// have defaults resolved (see Options.WithDefaults). Returns nil when no
// sub-matrix reaches the delta threshold.
// Test seam: the root package's TestChengChurchMatchesReference.
func FindOne(work *linalg.Matrix, opts Options) *Bicluster {
	bc, _ := FindOneCtx(context.Background(), work, opts)
	return bc
}

// MSROf computes the mean squared residue of an arbitrary sub-matrix of m —
// used to re-score discovered biclusters against the unmasked data.
func MSROf(m *linalg.Matrix, rows, cols []int) float64 { return msrOf(m, rows, cols) }

// Run extracts up to MaxBiclusters biclusters from m using the Cheng–Church
// algorithm, masking each find before searching again.
func Run(m *linalg.Matrix, opts Options) ([]Bicluster, error) {
	return RunCtx(context.Background(), m, opts)
}

// RunCtx is Run under a context (see FindOneCtx).
func RunCtx(ctx context.Context, m *linalg.Matrix, opts Options) ([]Bicluster, error) {
	if m.Rows == 0 || m.Cols == 0 {
		return nil, errors.New("bicluster: empty matrix")
	}
	opts = opts.WithDefaults(m)
	work := m.Clone()
	masker := NewMasker(m, opts.Seed)

	var out []Bicluster
	for b := 0; b < opts.MaxBiclusters; b++ {
		bc, err := FindOneCtx(ctx, work, opts)
		if err != nil {
			return nil, err
		}
		if bc == nil {
			break
		}
		// Re-score against the original matrix for reporting.
		bc.MSR = msrOf(m, bc.Rows, bc.Cols)
		out = append(out, *bc)
		if len(bc.Rows) == 0 || len(bc.Cols) == 0 {
			break
		}
		masker.Mask(work, bc)
	}
	if len(out) == 0 {
		return nil, errors.New("bicluster: no bicluster met the delta threshold")
	}
	return out, nil
}

// state tracks the live row/col sets of one search and the means and
// residues of the live sub-matrix, computed at most once per change of the
// sets. Column quantities are COMPACT: colMean[t] and colRes[t] belong to
// column live[t], so the per-cell loops index a dense list of live columns
// instead of testing a flag per cell.
//
// Every sum below keeps the order the textbook loops give it — a row's sum
// over j ascending, a column's over i ascending, the grand totals over
// (i, j) row-major — because those orders define the answer's bits. That is
// also why the sweep stays on one goroutine: total and colRes[t] are ordered
// reductions over rows.
type state struct {
	m          *linalg.Matrix
	rows, cols []bool
	nr, nc     int

	liveRows          []int     // live row indices, ascending
	live, dead        []int     // live / dead column indices, ascending
	rowMean, rowRes   []float64 // by row index; valid for live rows
	colMean, colRes   []float64 // by position in live
	deadMean, deadRes []float64 // by position in dead (phase 3 candidates)
	all, h            float64
	stale             bool // the sets changed since the last sweep
}

func newState(m *linalg.Matrix) *state {
	s := &state{
		m: m, rows: make([]bool, m.Rows), cols: make([]bool, m.Cols), nr: m.Rows, nc: m.Cols,
		liveRows: make([]int, 0, m.Rows), live: make([]int, 0, m.Cols), dead: make([]int, 0, m.Cols),
		rowMean: make([]float64, m.Rows), rowRes: make([]float64, m.Rows),
		colMean: make([]float64, m.Cols), colRes: make([]float64, m.Cols),
		deadMean: make([]float64, m.Cols), deadRes: make([]float64, m.Cols),
		stale: true,
	}
	for i := range s.rows {
		s.rows[i] = true
	}
	for j := range s.cols {
		s.cols[j] = true
	}
	return s
}

func (s *state) setRow(i int, on bool) {
	s.rows[i] = on
	if on {
		s.nr++
	} else {
		s.nr--
	}
	s.stale = true
}

func (s *state) setCol(j int, on bool) {
	s.cols[j] = on
	if on {
		s.nc++
	} else {
		s.nc--
	}
	s.stale = true
}

// sweep brings the means, the residues and H(I,J) = mean over live cells of
// (a_ij − rowMean − colMean + all)² up to date with the live sets: two passes
// over the live cells, and none when nothing changed since the last call.
func (s *state) sweep() {
	if !s.stale {
		return
	}
	s.stale = false
	s.live, s.dead = s.live[:0], s.dead[:0]
	for j, on := range s.cols {
		if on {
			s.live = append(s.live, j)
		} else {
			s.dead = append(s.dead, j)
		}
	}
	s.liveRows = s.liveRows[:0]
	for i, on := range s.rows {
		if on {
			s.liveRows = append(s.liveRows, i)
		}
	}
	live := s.live
	colMean, colRes := s.colMean[:len(live)], s.colRes[:len(live)]
	for t := range colMean {
		colMean[t], colRes[t] = 0, 0
	}
	fnr, fnc := float64(s.nr), float64(s.nc)

	// Means. Four live rows go through the columns together: each row's sum
	// is its own chain over j ascending, and colMean[t] still takes the rows
	// in i ascending order, so the bits are those of the row-at-a-time loop —
	// but the four sums no longer wait on one another's additions.
	total := 0.0
	rows := s.liveRows
	for len(rows) >= 4 {
		i0, i1, i2, i3 := rows[0], rows[1], rows[2], rows[3]
		r0, r1, r2, r3 := s.m.Row(i0), s.m.Row(i1), s.m.Row(i2), s.m.Row(i3)
		var s0, s1, s2, s3 float64
		for t, j := range live {
			v0, v1, v2, v3 := r0[j], r1[j], r2[j], r3[j]
			s0 += v0
			s1 += v1
			s2 += v2
			s3 += v3
			colMean[t] = colMean[t] + v0 + v1 + v2 + v3
		}
		s.rowMean[i0], s.rowMean[i1], s.rowMean[i2], s.rowMean[i3] = s0/fnc, s1/fnc, s2/fnc, s3/fnc
		total = total + s0 + s1 + s2 + s3
		rows = rows[4:]
	}
	for _, i := range rows {
		ri := s.m.Row(i)
		sum := 0.0
		for t, j := range live {
			v := ri[j]
			sum += v
			colMean[t] += v
		}
		s.rowMean[i] = sum / fnc
		total += sum
	}
	for t := range colMean {
		colMean[t] /= fnr
	}
	all := total / float64(s.nr*s.nc)
	s.all = all

	// Residues. total is one sum over every live cell in row-major order, so
	// this pass cannot interleave rows.
	total = 0.0
	for _, i := range s.liveRows {
		ri := s.m.Row(i)
		rm, rr := s.rowMean[i], 0.0
		for t, j := range live {
			d := ri[j] - rm - colMean[t] + all
			sq := d * d
			rr += sq
			colRes[t] += sq
			total += sq
		}
		s.rowRes[i] = rr / fnc
	}
	for t := range colRes {
		colRes[t] /= fnr
	}
	s.h = total / float64(s.nr*s.nc)
}

// FindOneCtx is FindOne under a context, checked once per deletion/addition
// sweep; a cancelled search returns ctx.Err().
func FindOneCtx(ctx context.Context, m *linalg.Matrix, opts Options) (*Bicluster, error) {
	s := newState(m)

	// Phase 1: multiple node deletion — drop every row/col whose residue
	// exceeds alpha × H in one sweep, while the matrix is large.
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		s.sweep()
		h := s.h
		if h <= opts.Delta || s.nr <= opts.MinRows || s.nc <= opts.MinCols {
			break
		}
		for _, i := range s.liveRows {
			if s.nr <= opts.MinRows {
				break
			}
			if s.rowRes[i] > opts.Alpha*h {
				s.setRow(i, false)
			}
		}
		for t, j := range s.live {
			if s.nc <= opts.MinCols {
				break
			}
			if s.colRes[t] > opts.Alpha*h {
				s.setCol(j, false)
			}
		}
		if !s.stale {
			break
		}
	}

	// Phase 2: single node deletion — remove the worst row or column until
	// H ≤ delta.
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		s.sweep()
		if s.h <= opts.Delta {
			break
		}
		bestRow, bestCol := -1, -1
		worstRow, worstCol := 0.0, 0.0
		for _, i := range s.liveRows {
			if s.rowRes[i] > worstRow {
				worstRow, bestRow = s.rowRes[i], i
			}
		}
		for t, j := range s.live {
			if s.colRes[t] > worstCol {
				worstCol, bestCol = s.colRes[t], j
			}
		}
		switch {
		case worstRow >= worstCol && bestRow >= 0 && s.nr > opts.MinRows:
			s.setRow(bestRow, false)
		case bestCol >= 0 && s.nc > opts.MinCols:
			s.setCol(bestCol, false)
		default:
			// Cannot shrink further; give up on reaching delta.
			return nil, nil
		}
	}

	// Phase 3: node addition — re-admit rows/cols whose residue is below the
	// current H (they do not hurt the bicluster quality).
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		s.sweep()
		added := s.addCols()
		s.sweep()
		if !s.addRows() && !added {
			break
		}
	}

	s.sweep()
	return &Bicluster{Rows: slices.Clone(s.liveRows), Cols: slices.Clone(s.live), MSR: s.h}, nil
}

// addCols re-admits every dead column whose residue against the current
// (swept) rows is at most H. All candidates are scored together, one pass
// over the live rows for their means and one for their residues, each
// column's sums still running over i ascending.
func (s *state) addCols() (added bool) {
	dead := s.dead
	cm, res := s.deadMean[:len(dead)], s.deadRes[:len(dead)]
	for t := range cm {
		cm[t], res[t] = 0, 0
	}
	for _, i := range s.liveRows {
		ri := s.m.Row(i)
		for t, j := range dead {
			cm[t] += ri[j]
		}
	}
	cnt, all, h := float64(s.nr), s.all, s.h
	for t := range cm {
		cm[t] /= cnt
	}
	for _, i := range s.liveRows {
		ri := s.m.Row(i)
		rm := s.rowMean[i]
		for t, j := range dead {
			d := ri[j] - rm - cm[t] + all
			res[t] += d * d
		}
	}
	for t, j := range dead {
		if res[t]/cnt <= h {
			s.setCol(j, true)
			added = true
		}
	}
	return added
}

// addRows re-admits every dead row whose residue against the current (swept)
// columns is at most H.
func (s *state) addRows() (added bool) {
	live, colMean := s.live, s.colMean[:len(s.live)]
	fnc, all, h := float64(s.nc), s.all, s.h
	for i, on := range s.rows {
		if on {
			continue
		}
		ri := s.m.Row(i)
		rm := 0.0
		for _, j := range live {
			rm += ri[j]
		}
		rm /= fnc
		res := 0.0
		for t, j := range live {
			d := ri[j] - rm - colMean[t] + all
			res += d * d
		}
		if res/fnc <= h {
			s.setRow(i, true)
			added = true
		}
	}
	return added
}

// msrOf computes the mean squared residue of an arbitrary sub-matrix of m.
func msrOf(m *linalg.Matrix, rows, cols []int) float64 {
	if len(rows) == 0 || len(cols) == 0 {
		return 0
	}
	rowMean := make([]float64, len(rows))
	colMean := make([]float64, len(cols))
	all := 0.0
	for a, i := range rows {
		for b, j := range cols {
			v := m.At(i, j)
			rowMean[a] += v
			colMean[b] += v
			all += v
		}
	}
	nr, nc := float64(len(rows)), float64(len(cols))
	for a := range rowMean {
		rowMean[a] /= nc
	}
	for b := range colMean {
		colMean[b] /= nr
	}
	all /= nr * nc
	total := 0.0
	for a, i := range rows {
		for b, j := range cols {
			d := m.At(i, j) - rowMean[a] - colMean[b] + all
			total += d * d
		}
	}
	return total / (nr * nc)
}

func matrixRange(m *linalg.Matrix) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for i := 0; i < m.Rows; i++ {
		for _, v := range m.Row(i) {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
	}
	return lo, hi
}

func splitMix64(seed uint64) func() float64 {
	s := seed
	return func() float64 {
		s += 0x9e3779b97f4a7c15
		z := s
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		return float64(z>>11) / (1 << 53)
	}
}
