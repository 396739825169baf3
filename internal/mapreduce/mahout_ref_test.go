package mapreduce

// The element-keyed record layout that mahout.go's row layout replaced, kept
// verbatim as the executable reference (only the identifiers carry a ref
// prefix): every partial gram entry and every partial vector element is its
// own "tag:i:j \t value" or "j \t value" record, summed one key at a time.
// The job bodies are the replaced ones too, so mahout_equiv_test.go and
// FuzzMahoutMatchesReference can hold each Mahout-style job to its old
// answer bit for bit, and the covariance floors can count and time both.

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"strings"

	"github.com/genbase/genbase/internal/engine"
	"github.com/genbase/genbase/internal/linalg"
)

// refEmitGram emits the upper triangle of the k×k partial gram as
// "tag:i:j \t value" records, in key order.
func refEmitGram(out *Emitter, tag byte, gram []float64, k int) {
	var kbuf, vbuf [32]byte
	for i := 0; i < k && out.err == nil; i++ {
		row := append(appendPadInt(append(kbuf[:0], tag, ':'), i), ':')
		for j := i; j < k; j++ {
			out.Emit(appendPadInt(row, j), strconv.AppendFloat(vbuf[:0], gram[i*k+j], 'g', -1, 64))
		}
	}
}

// refEmitVector emits v as "<prefix>j \t value" records, in key order.
func refEmitVector(out *Emitter, prefix string, v []float64) {
	var kbuf, vbuf [32]byte
	for j, x := range v {
		out.Emit(appendPadInt(append(kbuf[:0], prefix...), j), strconv.AppendFloat(vbuf[:0], x, 'g', -1, 64))
	}
}

// refReadGram is the driver's read of a gram job's output: "tag:i:j" records
// fill gram symmetrically and "y:i" records fill aty.
func refReadGram(parts [][]string, gram *linalg.Matrix, aty []float64) error {
	return records(parts, func(key, value string) error {
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			return err
		}
		if rest, ok := strings.CutPrefix(key, "y:"); ok {
			i, err := parseIndex(rest, len(aty))
			if err == nil {
				aty[i] = v
			}
			return err
		}
		var f [3]string
		if err := fields(key, ':', f[:]); err != nil {
			return err
		}
		i, err := parseIndex(f[1], gram.Rows)
		if err != nil {
			return err
		}
		j, err := parseIndex(f[2], gram.Cols)
		if err != nil {
			return err
		}
		gram.Set(i, j, v)
		gram.Set(j, i, v)
		return nil
	})
}

// refReadVector is the driver's read of "j \t value" records into dst.
func refReadVector(parts [][]string, dst []float64) error {
	return records(parts, func(key, value string) error {
		j, err := parseIndex(key, len(dst))
		if err == nil {
			dst[j], err = strconv.ParseFloat(value, 64)
		}
		return err
	})
}

// refGramJob computes XᵀX and Xᵀy partials per mapper and reduces them — the
// normal-equation approach Mahout-style regression takes.
func (e *Engine) refGramJob(ctx context.Context, matrix [][]string, k int, y []float64) (*linalg.Matrix, []float64, error) {
	job := &Job{
		Name:        "mahout-gram",
		Input:       matrix,
		NumReducers: e.splits(),
		MapSplit: func(split []string, out *Emitter) error {
			gram := make([]float64, k*k)
			aty := make([]float64, k)
			row := make([]float64, k)
			for ln, line := range split {
				if ln%1024 == 0 {
					if err := engine.CheckCtx(ctx); err != nil {
						return err
					}
				}
				id, err := parseRowLine(line, row, len(y))
				if err != nil {
					return err
				}
				addOuter(gram, row)
				yi := y[id]
				for i := 0; i < k; i++ {
					aty[i] += yi * row[i]
				}
			}
			refEmitGram(out, 'g', gram, k)
			refEmitVector(out, "y:", aty)
			return nil
		},
		Reduce: refSumReduce,
	}
	out, err := Run(ctx, job, e.Sched)
	if err != nil {
		return nil, nil, err
	}
	gram := linalg.NewMatrix(k, k)
	aty := make([]float64, k)
	if err := refReadGram(out, gram, aty); err != nil {
		return nil, nil, err
	}
	return gram, aty, nil
}

// refSumReduce adds text-encoded float values (with text round-trips, as a
// streaming reducer would).
func refSumReduce(key []byte, values [][]byte, out *Emitter) error {
	s := 0.0
	for _, v := range values {
		f, err := strconv.ParseFloat(string(v), 64)
		if err != nil {
			return malformed(string(v), err)
		}
		s += f
	}
	var vbuf [32]byte
	out.Emit(key, strconv.AppendFloat(vbuf[:0], s, 'g', -1, 64))
	return nil
}

// refColMeansJob computes per-column means of a matrix file.
func (e *Engine) refColMeansJob(ctx context.Context, matrix [][]string, k int, nRows int) ([]float64, error) {
	job := &Job{
		Name:        "mahout-colmeans",
		Input:       matrix,
		NumReducers: e.splits(),
		MapSplit: func(split []string, out *Emitter) error {
			sums := make([]float64, k)
			row := make([]float64, k)
			for _, line := range split {
				if _, err := parseRowLine(line, row, nRows); err != nil {
					return err
				}
				for j, v := range row {
					sums[j] += v
				}
			}
			refEmitVector(out, "", sums)
			return nil
		},
		Reduce: refSumReduce,
	}
	out, err := Run(ctx, job, e.Sched)
	if err != nil {
		return nil, err
	}
	means := make([]float64, k)
	if err := refReadVector(out, means); err != nil {
		return nil, err
	}
	for j := range means {
		means[j] /= float64(nRows)
	}
	return means, nil
}

// refCenteredGramJob computes Σ (x−mean)(x−mean)ᵀ partials — covariance
// before the 1/(n−1) scale.
func (e *Engine) refCenteredGramJob(ctx context.Context, matrix [][]string, k int, means []float64) (*linalg.Matrix, error) {
	job := &Job{
		Name:        "mahout-centered-gram",
		Input:       matrix,
		NumReducers: e.splits(),
		MapSplit: func(split []string, out *Emitter) error {
			gram := make([]float64, k*k)
			row := make([]float64, k)
			for ln, line := range split {
				if ln%256 == 0 {
					if err := engine.CheckCtx(ctx); err != nil {
						return err
					}
				}
				if _, err := parseRowLine(line, row, math.MaxInt); err != nil {
					return err
				}
				for j := range row {
					row[j] -= means[j]
				}
				addOuter(gram, row)
			}
			refEmitGram(out, 'c', gram, k)
			return nil
		},
		Reduce: refSumReduce,
	}
	out, err := Run(ctx, job, e.Sched)
	if err != nil {
		return nil, err
	}
	gram := linalg.NewMatrix(k, k)
	if err := refReadGram(out, gram, nil); err != nil {
		return nil, err
	}
	return gram, nil
}

// refApply is the replaced mrATAOperator.Apply: one MR job per Lanczos
// iteration whose reducers sum the mappers' partial z vectors element by
// element.
func (o *mrATAOperator) refApply(x []float64) []float64 {
	out := make([]float64, o.k)
	if o.err != nil {
		return out
	}
	job := &Job{
		Name:        "mahout-lanczos-matvec",
		Input:       o.matrix,
		NumReducers: o.e.splits(),
		MapSplit: func(split []string, out *Emitter) error {
			z := make([]float64, o.k)
			row := make([]float64, o.k)
			for ln, line := range split {
				if ln%1024 == 0 {
					if err := engine.CheckCtx(o.ctx); err != nil {
						return err
					}
				}
				if _, err := parseRowLine(line, row, math.MaxInt); err != nil {
					return err
				}
				yi := 0.0
				for j, v := range row {
					yi += v * x[j]
				}
				for j, v := range row {
					z[j] += yi * v
				}
			}
			refEmitVector(out, "", z)
			return nil
		},
		Reduce: refSumReduce,
	}
	res, err := Run(o.ctx, job, o.e.Sched)
	if err == nil {
		err = refReadVector(res, out)
	}
	o.err = err
	return out
}

// refSSResJob sums squared residuals with mapper-local accumulation.
func (e *Engine) refSSResJob(ctx context.Context, matrix [][]string, beta, y []float64) (float64, error) {
	k := len(beta)
	job := &Job{
		Name:  "mahout-ssres",
		Input: matrix,
		MapSplit: func(split []string, out *Emitter) error {
			row := make([]float64, k)
			ss := 0.0
			for _, line := range split {
				id, err := parseRowLine(line, row, len(y))
				if err != nil {
					return err
				}
				pred := 0.0
				for j, v := range row {
					pred += v * beta[j]
				}
				d := y[id] - pred
				ss += d * d
			}
			var vbuf [32]byte
			out.Emit([]byte("ssres"), strconv.AppendFloat(vbuf[:0], ss, 'g', -1, 64))
			return nil
		},
		Reduce: refSumReduce,
	}
	out, err := Run(ctx, job, e.Sched)
	if err != nil {
		return 0, err
	}
	ss, n := 0.0, 0
	err = records(out, func(_, value string) (err error) {
		n++
		ss, err = strconv.ParseFloat(value, 64)
		return err
	})
	if err == nil && n != 1 {
		err = fmt.Errorf("mapreduce: ssres job produced %d records, want 1", n)
	}
	return ss, err
}
