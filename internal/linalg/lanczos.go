package linalg

import (
	"errors"
	"math"

	"github.com/genbase/genbase/internal/parallel"
)

// LinearOperator abstracts "multiply a vector by a symmetric matrix". The
// engines provide different implementations: a dense in-memory operator
// (vanilla R), a chunked array operator (SciDB), a relational join+aggregate
// operator (Postgres+Madlib's simulated-SQL path), an MR job (Mahout), and a
// distributed all-reduce operator (pbdR). Lanczos itself is shared.
type LinearOperator interface {
	// Dim is the order of the (square, symmetric) operator.
	Dim() int
	// Apply computes y = A·x. The returned slice must not alias x, and
	// ownership transfers to the caller: Lanczos recycles spent result
	// vectors through the pooled arena (PutSlice) once the iteration is
	// done, so an implementation must return a fresh or arena-drawn slice
	// each call and must not retain it. (PutSlice quietly drops buffers it
	// does not recognize, so plain make'd results remain safe.)
	Apply(x []float64) []float64
}

// ATAOperator applies x ↦ Aᵀ(A·x) without forming AᵀA. This is the operator
// Q4 uses: the Lanczos iteration on AᵀA yields A's singular values. Workers
// sets the worker count of both mat-vecs (0 = default knob).
type ATAOperator struct {
	A       *Matrix
	Workers int
}

// Dim implements LinearOperator.
func (o ATAOperator) Dim() int { return o.A.Cols }

// Apply implements LinearOperator. Both the A·x intermediate and the result
// run through the pooled arena: the intermediate is returned immediately,
// the result once Lanczos is done with it — the per-iteration mat-vec allocs
// this removes were the KernelSVD/parallel allocation blow-up.
func (o ATAOperator) Apply(x []float64) []float64 {
	tmp := GetSlice(o.A.Rows)
	MatVecInto(tmp, o.A, x, o.Workers)
	y := GetSlice(o.A.Cols)
	matTVecInto(y, o.A, tmp, o.Workers)
	PutSlice(tmp)
	return y
}

// LanczosOptions controls the iteration.
type LanczosOptions struct {
	// MaxIter caps the Krylov subspace dimension. 0 means min(2k+20, n).
	MaxIter int
	// Tol is the convergence tolerance on Ritz-value movement. 0 means 1e-10.
	Tol float64
	// Reorthogonalize enables full reorthogonalization against all previous
	// Lanczos vectors (needed for accuracy; the ablation bench turns it off).
	Reorthogonalize bool
	// Seed selects the deterministic start vector.
	Seed uint64
	// Workers is a worker count (0 = the GENBASE_PARALLEL / NumCPU default).
	// The iteration itself never reads it: the operator's Apply brings its
	// own (ATAOperator.Workers), and the reorthogonalization sweep is a
	// serial chain of dependent updates. Lanczos uses it only to assemble
	// the Ritz vectors; TopKSVD also hands it to its ATAOperator and to the
	// mat-vec that forms U. Under SingularValues it does nothing. Results
	// are bitwise identical at any worker count.
	Workers int
}

// EigResult holds the top-k eigenpairs, eigenvalues in descending order.
type EigResult struct {
	Values     []float64
	Vectors    *Matrix // n×k; column j pairs with Values[j]. Nil if not requested.
	Iterations int
}

// Lanczos finds the k largest eigenvalues (and eigenvectors) of a symmetric
// positive semi-definite operator, per the paper's Q4 ("the Lanczos
// algorithm, ... a power method that can iteratively find the largest
// eigenvalues of symmetric positive semidefinite matrices").
func Lanczos(op LinearOperator, k int, opts LanczosOptions) (*EigResult, error) {
	return lanczos(op, k, opts, true)
}

// lanczos is Lanczos; without wantVectors it skips the Ritz vectors and
// leaves EigResult.Vectors nil. The eigenvalues do not depend on it:
// SymTriEig runs the same QL sweeps whether or not it accumulates vectors.
func lanczos(op LinearOperator, k int, opts LanczosOptions, wantVectors bool) (*EigResult, error) {
	n := op.Dim()
	if n == 0 {
		return &EigResult{Values: nil, Vectors: NewMatrix(0, 0)}, nil
	}
	if k <= 0 {
		return nil, errors.New("linalg: k must be positive")
	}
	if k > n {
		k = n
	}
	maxIter := opts.MaxIter
	if maxIter <= 0 {
		maxIter = 2*k + 20
	}
	if maxIter > n {
		maxIter = n
	}
	if maxIter < k {
		maxIter = k
	}
	tol := opts.Tol
	if tol <= 0 {
		tol = 1e-10
	}

	// Deterministic pseudo-random start vector, drawn from the arena like
	// every other basis vector (recycled below with the rest of the basis).
	rng := splitMix64(opts.Seed ^ 0x9e3779b97f4a7c15)
	v := GetSlice(n)
	for i := range v {
		v[i] = rng()*2 - 1
	}
	nv := Norm2(v)
	if nv == 0 {
		v[0] = 1
		nv = 1
	}
	ScaleVec(1/nv, v)

	basis := make([][]float64, 0, maxIter)
	var alpha, beta []float64
	var prevRitz []float64

	w := v
	var vPrev []float64
	var av []float64
	betaPrev := 0.0
	iters := 0
	for j := 0; j < maxIter; j++ {
		iters = j + 1
		basis = append(basis, w)
		av = op.Apply(w)
		if vPrev != nil {
			Axpy(-betaPrev, vPrev, av)
		}
		a := Dot(w, av)
		alpha = append(alpha, a)
		Axpy(-a, w, av)
		if opts.Reorthogonalize {
			// Twice is enough (Kahan): remove components along every previous
			// Lanczos vector to defeat the classic loss of orthogonality.
			for pass := 0; pass < 2; pass++ {
				for _, u := range basis {
					Axpy(-Dot(u, av), u, av)
				}
			}
		}
		b := Norm2(av)
		// Convergence check on the current Ritz values.
		if len(alpha) >= k {
			ritz, _, err := SymTriEig(alpha, beta, false)
			if err != nil {
				return nil, err
			}
			topK := topDescending(ritz, k)
			if prevRitz != nil && maxMove(topK, prevRitz) < tol*(1+math.Abs(topK[0])) {
				break
			}
			prevRitz = topK
		}
		if b < 1e-13 {
			// Invariant subspace found (happy breakdown).
			break
		}
		if j+1 < maxIter {
			beta = append(beta, b)
			ScaleVec(1/b, av)
			vPrev = w
			betaPrev = b
			w = av
		}
	}

	m := len(alpha)
	vals, vecsT, err := SymTriEig(alpha, beta[:m-1], wantVectors)
	if err != nil {
		return nil, err
	}
	// Take the k largest (SymTriEig returns ascending).
	if k > m {
		k = m
	}
	res := &EigResult{Values: make([]float64, k), Iterations: iters}
	for j := 0; j < k; j++ {
		res.Values[j] = vals[m-1-j]
	}
	if wantVectors {
		res.Vectors = NewMatrix(n, k)
		// Ritz vectors: V_basis · y_col, with the output rows partitioned
		// across the pool (each element keeps its serial accumulation order
		// over t).
		ritzWorkers := gemmWorkers(opts.Workers, int64(n)*int64(m)*int64(k))
		parallel.ForSplit(ritzWorkers, n, func(lo, hi int) {
			for j := 0; j < k; j++ {
				col := m - 1 - j
				for t := 0; t < m; t++ {
					c := vecsT.At(t, col)
					if c == 0 {
						continue
					}
					bt := basis[t]
					for i := lo; i < hi; i++ {
						res.Vectors.Data[i*res.Vectors.Stride+j] += c * bt[i]
					}
				}
			}
		})
	}
	// Recycle the Krylov basis and the final (never-enrolled) Apply result:
	// every loop exit leaves the last av outside basis. Basis entries are the
	// start vector plus enrolled Apply results — all arena-drawn under the
	// Apply ownership contract.
	for _, u := range basis {
		PutSlice(u)
	}
	PutSlice(av)
	return res, nil
}

// SVDResult holds the top-k singular triplets of a rectangular matrix.
type SVDResult struct {
	SingularValues []float64
	// V holds right-singular vectors (cols of A's row space), n×k.
	V *Matrix
	// U holds left-singular vectors, m×k (computed as A·v/σ).
	U *Matrix
}

// TopKSVD computes the k largest singular values/vectors of A by running
// Lanczos on the implicit operator AᵀA (Q4's workflow).
func TopKSVD(a *Matrix, k int, opts LanczosOptions) (*SVDResult, error) {
	if k > a.Cols {
		k = a.Cols
	}
	eig, err := Lanczos(ATAOperator{A: a, Workers: opts.Workers}, k, opts)
	if err != nil {
		return nil, err
	}
	res := &SVDResult{
		SingularValues: sqrtEigenvalues(eig.Values),
		V:              eig.Vectors,
		U:              NewMatrix(a.Rows, len(eig.Values)),
	}
	for j, sigma := range res.SingularValues {
		if sigma > 1e-13 {
			u := GetSlice(a.Rows)
			MatVecInto(u, a, eig.Vectors.Col(j), opts.Workers)
			ScaleVec(1/sigma, u)
			for i := 0; i < a.Rows; i++ {
				res.U.Set(i, j, u[i])
			}
			PutSlice(u)
		}
	}
	return res, nil
}

// SingularValues returns the k largest singular values, descending, of the
// matrix A whose AᵀA op applies: Lanczos without Ritz vectors, then
// sqrtEigenvalues. It is Q4's answer for every engine that keeps no
// singular vectors; its values are bitwise those of TopKSVD on the same
// operator and options.
func SingularValues(op LinearOperator, k int, opts LanczosOptions) ([]float64, error) {
	eig, err := lanczos(op, k, opts, false)
	if err != nil {
		return nil, err
	}
	return sqrtEigenvalues(eig.Values), nil
}

// sqrtEigenvalues maps eigenvalues of AᵀA to singular values of A. AᵀA is
// PSD, so a negative eigenvalue is roundoff and maps to 0.
func sqrtEigenvalues(lams []float64) []float64 {
	sv := make([]float64, len(lams))
	for i, lam := range lams {
		if lam < 0 {
			lam = 0
		}
		sv[i] = math.Sqrt(lam)
	}
	return sv
}

// topDescending returns the k largest entries of vals in descending order.
func topDescending(vals []float64, k int) []float64 {
	out := make([]float64, 0, k)
	for i := len(vals) - 1; i >= 0 && len(out) < k; i-- {
		out = append(out, vals[i])
	}
	return out
}

func maxMove(a, b []float64) float64 {
	n := min(len(a), len(b))
	max := 0.0
	for i := 0; i < n; i++ {
		if d := math.Abs(a[i] - b[i]); d > max {
			max = d
		}
	}
	return max
}

// splitMix64 returns a deterministic uniform-[0,1) generator.
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
