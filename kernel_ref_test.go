// Reference kernel bodies (DESIGN.md §9): the QR, Cheng–Church, top-k
// threshold and Wilcoxon enrichment bodies exactly as they were before the
// second kernel pass replaced them, kept test-only. They are the oracle of the
// equivalence tests (kernel_equiv_test.go), the denominator of the CI ratio
// floors (kernel_floor_test.go) and the "ref" rows of the kernel benches. Do
// not tune them: their value is that they are the slow, obviously-ordered
// loops the goldens were first computed with.
package genbase

import (
	"context"
	"errors"
	"math"
	"slices"
	"sort"

	"github.com/genbase/genbase/internal/bicluster"
	"github.com/genbase/genbase/internal/engine"
	"github.com/genbase/genbase/internal/linalg"
	"github.com/genbase/genbase/internal/stats"
)

// --- Householder QR on a row-major factor, through At/Set -----------------

type refQR struct {
	qr  *linalg.Matrix
	tau []float64
}

func refNewQR(a *linalg.Matrix) (*refQR, error) {
	m, n := a.Rows, a.Cols
	if m < n {
		return nil, errors.New("linalg: QR requires rows >= cols")
	}
	qr := linalg.GetMatrix(m, n)
	for i := 0; i < m; i++ {
		copy(qr.Row(i), a.Row(i))
	}
	tau := linalg.GetSlice(n)
	for i := range tau {
		tau[i] = 0
	}
	for k := 0; k < n; k++ {
		// Norm of the k-th column below (and including) the diagonal.
		norm := 0.0
		for i := k; i < m; i++ {
			norm = math.Hypot(norm, qr.At(i, k))
		}
		if norm == 0 {
			tau[k] = 0
			continue
		}
		if qr.At(k, k) < 0 {
			norm = -norm
		}
		// Form the Householder vector v (stored in place, scaled so that the
		// reflector is I − v·vᵀ/v_k).
		for i := k; i < m; i++ {
			qr.Set(i, k, qr.At(i, k)/norm)
		}
		qr.Set(k, k, qr.At(k, k)+1)
		tau[k] = -norm // diagonal of R
		// Apply the reflector to the remaining columns.
		vkk := qr.At(k, k)
		for j := k + 1; j < n; j++ {
			s := 0.0
			for i := k; i < m; i++ {
				s += qr.At(i, k) * qr.At(i, j)
			}
			s = -s / vkk
			for i := k; i < m; i++ {
				qr.Set(i, j, qr.At(i, j)+s*qr.At(i, k))
			}
		}
	}
	return &refQR{qr: qr, tau: tau}, nil
}

func (f *refQR) Release() {
	linalg.PutMatrix(f.qr)
	linalg.PutSlice(f.tau)
	f.qr, f.tau = nil, nil
}

func (f *refQR) R() *linalg.Matrix {
	n := f.qr.Cols
	r := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			if i == j {
				r.Set(i, j, f.tau[i])
			} else {
				r.Set(i, j, f.qr.At(i, j))
			}
		}
	}
	return r
}

func (f *refQR) Q() *linalg.Matrix {
	m, n := f.qr.Rows, f.qr.Cols
	q := linalg.NewMatrix(m, n)
	for k := n - 1; k >= 0; k-- {
		q.Set(k, k, 1)
		if f.qr.At(k, k) == 0 {
			continue
		}
		for j := k; j < n; j++ {
			s := 0.0
			for i := k; i < m; i++ {
				s += f.qr.At(i, k) * q.At(i, j)
			}
			s = -s / f.qr.At(k, k)
			for i := k; i < m; i++ {
				q.Set(i, j, q.At(i, j)+s*f.qr.At(i, k))
			}
		}
	}
	return q
}

func (f *refQR) QTVec(b []float64) []float64 {
	y := make([]float64, f.qr.Rows)
	f.qtvecInto(y, b)
	return y
}

func (f *refQR) qtvecInto(y, b []float64) {
	m, n := f.qr.Rows, f.qr.Cols
	if len(b) != m {
		panic("linalg: QTVec length mismatch")
	}
	copy(y, b)
	for k := 0; k < n; k++ {
		if f.qr.At(k, k) == 0 {
			continue
		}
		s := 0.0
		for i := k; i < m; i++ {
			s += f.qr.At(i, k) * y[i]
		}
		s = -s / f.qr.At(k, k)
		for i := k; i < m; i++ {
			y[i] += s * f.qr.At(i, k)
		}
	}
}

func (f *refQR) Solve(b []float64) ([]float64, error) {
	n := f.qr.Cols
	y := linalg.GetSlice(f.qr.Rows)
	f.qtvecInto(y, b)
	x := make([]float64, n)
	copy(x, y[:n])
	linalg.PutSlice(y)
	// Back-substitute R x = y.
	for k := n - 1; k >= 0; k-- {
		rkk := f.tau[k]
		if math.Abs(rkk) < 1e-12 {
			return nil, linalg.ErrRankDeficient
		}
		for j := k + 1; j < n; j++ {
			x[k] -= f.qr.At(k, j) * x[j]
		}
		x[k] /= rkk
	}
	return x, nil
}

func refLeastSquares(a *linalg.Matrix, b []float64) (*linalg.LeastSquaresResult, error) {
	f, err := refNewQR(a)
	if err != nil {
		return nil, err
	}
	x, err := f.Solve(b)
	f.Release()
	if err != nil {
		return nil, err
	}
	ssRes := 0.0
	for i, v := range b {
		d := v - linalg.Dot(a.Row(i), x)
		ssRes += d * d
	}
	mb := linalg.Mean(b)
	ssTot := 0.0
	for _, v := range b {
		d := v - mb
		ssTot += d * d
	}
	r2 := 0.0
	if ssTot > 0 {
		r2 = 1 - ssRes/ssTot
	}
	return &linalg.LeastSquaresResult{Coefficients: x, Residual: math.Sqrt(ssRes), RSquared: r2}, nil
}

// --- Cheng–Church: means and residues recomputed on every use -------------

type refState struct {
	m          *linalg.Matrix
	rows, cols []bool
	nr, nc     int
}

func refNewState(m *linalg.Matrix) *refState {
	s := &refState{m: m, rows: make([]bool, m.Rows), cols: make([]bool, m.Cols), nr: m.Rows, nc: m.Cols}
	for i := range s.rows {
		s.rows[i] = true
	}
	for j := range s.cols {
		s.cols[j] = true
	}
	return s
}

func (s *refState) means() (rowMean, colMean []float64, all float64) {
	rowMean = make([]float64, s.m.Rows)
	colMean = make([]float64, s.m.Cols)
	total := 0.0
	for i := 0; i < s.m.Rows; i++ {
		if !s.rows[i] {
			continue
		}
		ri := s.m.Row(i)
		sum := 0.0
		for j := 0; j < s.m.Cols; j++ {
			if !s.cols[j] {
				continue
			}
			v := ri[j]
			sum += v
			colMean[j] += v
		}
		rowMean[i] = sum / float64(s.nc)
		total += sum
	}
	for j := range colMean {
		if s.cols[j] {
			colMean[j] /= float64(s.nr)
		}
	}
	all = total / float64(s.nr*s.nc)
	return rowMean, colMean, all
}

func (s *refState) residues() (rowRes, colRes []float64, h float64) {
	rowMean, colMean, all := s.means()
	rowRes = make([]float64, s.m.Rows)
	colRes = make([]float64, s.m.Cols)
	total := 0.0
	for i := 0; i < s.m.Rows; i++ {
		if !s.rows[i] {
			continue
		}
		ri := s.m.Row(i)
		for j := 0; j < s.m.Cols; j++ {
			if !s.cols[j] {
				continue
			}
			d := ri[j] - rowMean[i] - colMean[j] + all
			sq := d * d
			rowRes[i] += sq
			colRes[j] += sq
			total += sq
		}
	}
	for i := range rowRes {
		if s.rows[i] {
			rowRes[i] /= float64(s.nc)
		}
	}
	for j := range colRes {
		if s.cols[j] {
			colRes[j] /= float64(s.nr)
		}
	}
	h = total / float64(s.nr*s.nc)
	return rowRes, colRes, h
}

func refFindOne(m *linalg.Matrix, opts bicluster.Options) *bicluster.Bicluster {
	s := refNewState(m)

	// Phase 1: multiple node deletion.
	for {
		_, _, h := s.residues()
		if h <= opts.Delta || s.nr <= opts.MinRows || s.nc <= opts.MinCols {
			break
		}
		rowRes, colRes, _ := s.residues()
		removed := false
		if s.nr > opts.MinRows {
			for i := 0; i < m.Rows && s.nr > opts.MinRows; i++ {
				if s.rows[i] && rowRes[i] > opts.Alpha*h {
					s.rows[i] = false
					s.nr--
					removed = true
				}
			}
		}
		if s.nc > opts.MinCols {
			for j := 0; j < m.Cols && s.nc > opts.MinCols; j++ {
				if s.cols[j] && colRes[j] > opts.Alpha*h {
					s.cols[j] = false
					s.nc--
					removed = true
				}
			}
		}
		if !removed {
			break
		}
	}

	// Phase 2: single node deletion.
	for {
		rowRes, colRes, h := s.residues()
		if h <= opts.Delta {
			break
		}
		bestRow, bestCol := -1, -1
		worstRow, worstCol := 0.0, 0.0
		for i := range rowRes {
			if s.rows[i] && rowRes[i] > worstRow {
				worstRow, bestRow = rowRes[i], i
			}
		}
		for j := range colRes {
			if s.cols[j] && colRes[j] > worstCol {
				worstCol, bestCol = colRes[j], j
			}
		}
		switch {
		case worstRow >= worstCol && bestRow >= 0 && s.nr > opts.MinRows:
			s.rows[bestRow] = false
			s.nr--
		case bestCol >= 0 && s.nc > opts.MinCols:
			s.cols[bestCol] = false
			s.nc--
		default:
			return nil
		}
	}

	// Phase 3: node addition.
	for {
		added := false
		rowMean, colMean, all := s.means()
		_, _, h := s.residues()
		for j := 0; j < m.Cols; j++ {
			if s.cols[j] {
				continue
			}
			res := 0.0
			cnt := 0
			cm := 0.0
			for i := 0; i < m.Rows; i++ {
				if s.rows[i] {
					cm += m.At(i, j)
					cnt++
				}
			}
			if cnt == 0 {
				continue
			}
			cm /= float64(cnt)
			for i := 0; i < m.Rows; i++ {
				if !s.rows[i] {
					continue
				}
				d := m.At(i, j) - rowMean[i] - cm + all
				res += d * d
			}
			if res/float64(cnt) <= h {
				s.cols[j] = true
				s.nc++
				added = true
			}
		}
		rowMean, colMean, all = s.means()
		_, _, h = s.residues()
		for i := 0; i < m.Rows; i++ {
			if s.rows[i] {
				continue
			}
			rm := 0.0
			for j := 0; j < m.Cols; j++ {
				if s.cols[j] {
					rm += m.At(i, j)
				}
			}
			rm /= float64(s.nc)
			res := 0.0
			for j := 0; j < m.Cols; j++ {
				if !s.cols[j] {
					continue
				}
				d := m.At(i, j) - rm - colMean[j] + all
				res += d * d
			}
			if res/float64(s.nc) <= h {
				s.rows[i] = true
				s.nr++
				added = true
			}
		}
		if !added {
			break
		}
	}

	bc := &bicluster.Bicluster{}
	for i, on := range s.rows {
		if on {
			bc.Rows = append(bc.Rows, i)
		}
	}
	for j, on := range s.cols {
		if on {
			bc.Cols = append(bc.Cols, j)
		}
	}
	_, _, bc.MSR = s.residues()
	return bc
}

func refBiclusterRun(m *linalg.Matrix, opts bicluster.Options) ([]bicluster.Bicluster, error) {
	if m.Rows == 0 || m.Cols == 0 {
		return nil, errors.New("bicluster: empty matrix")
	}
	opts = opts.WithDefaults(m)
	work := m.Clone()
	masker := bicluster.NewMasker(m, opts.Seed)

	var out []bicluster.Bicluster
	for b := 0; b < opts.MaxBiclusters; b++ {
		bc := refFindOne(work, opts)
		if bc == nil {
			break
		}
		bc.MSR = bicluster.MSROf(m, bc.Rows, bc.Cols)
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

// --- top-k threshold by a full sort ----------------------------------------

// refCovThreshold is SummarizeCovariance's threshold step as it was: gather
// |cov| over the strict upper triangle, sort all of it, read one element.
func refCovThreshold(cov *linalg.Matrix, topFrac float64) float64 {
	n := cov.Rows
	total := n * (n - 1) / 2
	abs := linalg.GetSlice(total)
	k := 0
	for i := 0; i < n; i++ {
		row := cov.Row(i)
		for j := i + 1; j < n; j++ {
			abs[k] = math.Abs(row[j])
			k++
		}
	}
	slices.Sort(abs)
	keep := int(float64(total) * topFrac)
	if keep < 1 {
		keep = 1
	}
	if keep > total {
		keep = total
	}
	threshold := abs[total-keep]
	linalg.PutSlice(abs)
	return threshold
}

// --- Wilcoxon enrichment: two sorts per term, serial ------------------------

func refRanks(xs []float64) []float64 {
	n := len(xs)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	ranks := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && xs[idx[j+1]] == xs[idx[i]] {
			j++
		}
		// Positions i..j (0-based) share mid-rank (i+1 + j+1)/2.
		mid := float64(i+j+2) / 2
		for k := i; k <= j; k++ {
			ranks[idx[k]] = mid
		}
		i = j + 1
	}
	return ranks
}

func refTieGroups(xs []float64) []int {
	n := len(xs)
	if n == 0 {
		return nil
	}
	sorted := make([]float64, n)
	copy(sorted, xs)
	sort.Float64s(sorted)
	var groups []int
	for i := 0; i < n; {
		j := i
		for j+1 < n && sorted[j+1] == sorted[i] {
			j++
		}
		if j > i {
			groups = append(groups, j-i+1)
		}
		i = j + 1
	}
	return groups
}

func refWilcoxonRankSum(x, y []float64) (*stats.WilcoxonResult, error) {
	n1, n2 := len(x), len(y)
	if n1 == 0 || n2 == 0 {
		return nil, stats.ErrEmptyGroup
	}
	all := make([]float64, 0, n1+n2)
	all = append(all, x...)
	all = append(all, y...)
	ranks := refRanks(all)
	w := 0.0
	for i := 0; i < n1; i++ {
		w += ranks[i]
	}
	fn1, fn2 := float64(n1), float64(n2)
	n := fn1 + fn2
	u := w - fn1*(fn1+1)/2
	meanU := fn1 * fn2 / 2
	tieSum := 0.0
	for _, t := range refTieGroups(all) {
		ft := float64(t)
		tieSum += ft*ft*ft - ft
	}
	varU := fn1 * fn2 / 12 * ((n + 1) - tieSum/(n*(n-1)))
	res := &stats.WilcoxonResult{W: w, U: u}
	if varU <= 0 {
		res.Z = 0
		res.P = 1
		return res, nil
	}
	diff := u - meanU
	switch {
	case diff > 0.5:
		diff -= 0.5
	case diff < -0.5:
		diff += 0.5
	default:
		diff = 0
	}
	res.Z = diff / math.Sqrt(varU)
	res.P = stats.TwoSidedP(res.Z)
	return res, nil
}

func refEnrichmentTest(ctx context.Context, means []float64, members [][]int32, sampled int) (*engine.StatsAnswer, error) {
	ans := &engine.StatsAnswer{SampledPatients: sampled}
	inSet := make([]bool, len(means))
	in := make([]float64, 0, len(means))
	out := make([]float64, 0, len(means))
	for t, genes := range members {
		if t%16 == 0 {
			if err := engine.CheckCtx(ctx); err != nil {
				return nil, err
			}
		}
		in, out = in[:0], out[:0]
		for _, j := range genes {
			inSet[j] = true
		}
		for j, v := range means {
			if inSet[j] {
				in = append(in, v)
			} else {
				out = append(out, v)
			}
		}
		for _, j := range genes {
			inSet[j] = false
		}
		res, err := refWilcoxonRankSum(in, out)
		if err != nil {
			return nil, err
		}
		ans.Terms = append(ans.Terms, engine.TermStat{Term: t, Z: res.Z, P: res.P})
	}
	return ans, nil
}
