package mapreduce

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"strconv"
	"strings"

	"github.com/genbase/genbase/internal/engine"
	"github.com/genbase/genbase/internal/linalg"
)

// The Mahout-style analytics: every kernel is a chain of MR jobs over text
// matrix rows, with in-mapper combining for partial aggregates and no BLAS
// anywhere — "matrix operations are not done through a high performance
// linear algebra package".

// matrixLines renders a dense matrix as Mahout-style row files
// "rowid \t v1,v2,..." split for MR input. This materialization-to-text
// between DM and analytics jobs is part of Hadoop's cost.
func matrixLines(m *linalg.Matrix, splits int) [][]string {
	lines := make([]string, m.Rows)
	var buf []byte
	for i := range lines {
		buf = append(appendPadInt(buf[:0], i), '\t')
		for j, v := range m.Row(i) {
			if j > 0 {
				buf = append(buf, ',')
			}
			buf = strconv.AppendFloat(buf, v, 'g', -1, 64)
		}
		lines[i] = string(buf)
	}
	return SplitLines(lines, splits)
}

// malformed wraps the reason a text record could not be decoded. Every
// reader of table lines, shuffle values and reducer output reports through
// it, so bad text is an error and never an index panic or a silent zero.
func malformed(rec string, err error) error {
	if len(rec) > 48 {
		rec = rec[:48] + "..."
	}
	return fmt.Errorf("mapreduce: malformed record %q: %w", rec, err)
}

// fields splits rec on sep into exactly len(dst) fields. Like every parse
// error below it, its error names no record: the reader that holds the whole
// record wraps it with malformed, once.
func fields(rec string, sep byte, dst []string) error {
	rest := rec
	for i := range dst {
		j := strings.IndexByte(rest, sep)
		if (j < 0) != (i == len(dst)-1) {
			return fmt.Errorf("want %d fields separated by %q", len(dst), sep)
		}
		if j < 0 {
			dst[i] = rest
		} else {
			dst[i], rest = rest[:j], rest[j+1:]
		}
	}
	return nil
}

// records hands every "key\tvalue" line of the reducers' output to fn.
func records(parts [][]string, fn func(key, value string) error) error {
	var kv [2]string
	for _, part := range parts {
		for _, line := range part {
			err := fields(line, '\t', kv[:])
			if err == nil {
				err = fn(kv[0], kv[1])
			}
			if err != nil {
				return malformed(line, err)
			}
		}
	}
	return nil
}

// padWidth is the width numeric keys are zero-padded to, so that
// lexicographic key order matches numeric order (Hadoop sorts keys as bytes).
const padWidth = 10

func appendPad[S string | []byte](dst []byte, s S) []byte {
	for i := len(s); i < padWidth; i++ {
		dst = append(dst, '0')
	}
	return append(dst, s...)
}

func appendPadInt(dst []byte, n int) []byte {
	var digits [20]byte
	return appendPad(dst, strconv.AppendInt(digits[:0], int64(n), 10))
}

func parsePadded(s string) (int, error) {
	t := strings.TrimLeft(s, "0")
	if t == "" && s != "" {
		return 0, nil
	}
	return strconv.Atoi(t)
}

// parseIndex decodes a (padded) id that must index a table of n entries.
func parseIndex(s string, n int) (int, error) {
	i, err := parsePadded(s)
	if err == nil && (i < 0 || i >= n) {
		err = fmt.Errorf("id %d outside [0,%d)", i, n)
	}
	return i, err
}

// parseRowLine decodes a matrix row line into dst and returns its row id,
// which must be below rows.
func parseRowLine(line string, dst []float64, rows int) (int, error) {
	var f [2]string
	err := fields(line, '\t', f[:])
	var id int
	if err == nil {
		id, err = parseIndex(f[0], rows)
	}
	if err == nil {
		err = parseFloatFields(f[1], dst)
	}
	if err != nil {
		return 0, malformed(line, err)
	}
	return id, nil
}

// parseFloatFields decodes a comma-separated float row into dst in place —
// the text engine's columnar batch decode. Unlike strings.Split it
// allocates nothing: every Mahout-style job parses each matrix row through
// here, so the old per-row []string garbage is gone from the whole MR
// analytics path.
func parseFloatFields(s string, dst []float64) error {
	j, start := 0, 0
	for k := 0; k <= len(s); k++ {
		if k == len(s) || s[k] == ',' {
			if j >= len(dst) {
				return fmt.Errorf("mapreduce: row has more than %d fields", len(dst))
			}
			v, err := strconv.ParseFloat(s[start:k], 64)
			if err != nil {
				return err
			}
			dst[j] = v
			j++
			start = k + 1
		}
	}
	if j != len(dst) {
		return fmt.Errorf("mapreduce: row has %d fields, want %d", j, len(dst))
	}
	return nil
}

// addOuter adds the upper triangle of row·rowᵀ into the len(row)² gram.
func addOuter(gram, row []float64) {
	k := len(row)
	for i, vi := range row {
		if vi == 0 {
			continue
		}
		for j := i; j < k; j++ {
			gram[i*k+j] += vi * row[j]
		}
	}
}

// emitGram emits the upper triangle of the k×k partial gram as
// "tag:i:j \t value" records, in key order.
func emitGram(out *Emitter, tag byte, gram []float64, k int) {
	var kbuf, vbuf [32]byte
	for i := 0; i < k && out.err == nil; i++ {
		row := append(appendPadInt(append(kbuf[:0], tag, ':'), i), ':')
		for j := i; j < k; j++ {
			out.Emit(appendPadInt(row, j), strconv.AppendFloat(vbuf[:0], gram[i*k+j], 'g', -1, 64))
		}
	}
}

// emitVector emits v as "<prefix>j \t value" records, in key order.
func emitVector(out *Emitter, prefix string, v []float64) {
	var kbuf, vbuf [32]byte
	for j, x := range v {
		out.Emit(appendPadInt(append(kbuf[:0], prefix...), j), strconv.AppendFloat(vbuf[:0], x, 'g', -1, 64))
	}
}

// readGram is the driver's read of a gram job's output: "tag:i:j" records
// fill gram symmetrically and "y:i" records fill aty.
func readGram(parts [][]string, gram *linalg.Matrix, aty []float64) error {
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

// readVector is the driver's read of "j \t value" records into dst.
func readVector(parts [][]string, dst []float64) error {
	return records(parts, func(key, value string) error {
		j, err := parseIndex(key, len(dst))
		if err == nil {
			dst[j], err = strconv.ParseFloat(value, 64)
		}
		return err
	})
}

// gramJob computes XᵀX and Xᵀy partials per mapper and reduces them — the
// normal-equation approach Mahout-style regression takes.
func (e *Engine) gramJob(ctx context.Context, matrix [][]string, k int, y []float64) (*linalg.Matrix, []float64, error) {
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
			emitGram(out, 'g', gram, k)
			emitVector(out, "y:", aty)
			return nil
		},
		Reduce: sumReduce,
	}
	out, err := Run(ctx, job, e.Sched)
	if err != nil {
		return nil, nil, err
	}
	gram := linalg.NewMatrix(k, k)
	aty := make([]float64, k)
	if err := readGram(out, gram, aty); err != nil {
		return nil, nil, err
	}
	return gram, aty, nil
}

// sumReduce adds text-encoded float values (with text round-trips, as a
// streaming reducer would).
func sumReduce(key []byte, values [][]byte, out *Emitter) error {
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

// colMeansJob computes per-column means of a matrix file.
func (e *Engine) colMeansJob(ctx context.Context, matrix [][]string, k int, nRows int) ([]float64, error) {
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
			emitVector(out, "", sums)
			return nil
		},
		Reduce: sumReduce,
	}
	out, err := Run(ctx, job, e.Sched)
	if err != nil {
		return nil, err
	}
	means := make([]float64, k)
	if err := readVector(out, means); err != nil {
		return nil, err
	}
	for j := range means {
		means[j] /= float64(nRows)
	}
	return means, nil
}

// centeredGramJob computes Σ (x−mean)(x−mean)ᵀ partials — covariance before
// the 1/(n−1) scale.
func (e *Engine) centeredGramJob(ctx context.Context, matrix [][]string, k int, means []float64) (*linalg.Matrix, error) {
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
			emitGram(out, 'c', gram, k)
			return nil
		},
		Reduce: sumReduce,
	}
	out, err := Run(ctx, job, e.Sched)
	if err != nil {
		return nil, err
	}
	gram := linalg.NewMatrix(k, k)
	if err := readGram(out, gram, nil); err != nil {
		return nil, err
	}
	return gram, nil
}

// mrATAOperator runs one MR job per Lanczos iteration: each mapper parses
// its rows, computes y_i = row·x and accumulates z += y_i·row locally, then
// reducers sum the partial z vectors. Exactly Mahout's DistributedLanczos
// shape.
type mrATAOperator struct {
	ctx    context.Context
	e      *Engine
	matrix [][]string
	k      int
	err    error
}

// Dim implements linalg.LinearOperator.
func (o *mrATAOperator) Dim() int { return o.k }

// Apply implements linalg.LinearOperator.
func (o *mrATAOperator) Apply(x []float64) []float64 {
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
			emitVector(out, "", z)
			return nil
		},
		Reduce: sumReduce,
	}
	res, err := Run(o.ctx, job, o.e.Sched)
	if err == nil {
		err = readVector(res, out)
	}
	o.err = err
	return out
}

// ssResJob sums squared residuals with mapper-local accumulation.
func (e *Engine) ssResJob(ctx context.Context, matrix [][]string, beta, y []float64) (float64, error) {
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
		Reduce: sumReduce,
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

// solveSymmetric solves Gx = b for a symmetric positive-definite G by QR.
func solveSymmetric(g *linalg.Matrix, b []float64) ([]float64, error) {
	qr, err := linalg.NewQR(g)
	if err != nil {
		return nil, err
	}
	return qr.Solve(b)
}

type mrFuncLookup struct{ fns []int64 }

func (f mrFuncLookup) FunctionOf(g int) int64 { return f.fns[g] }

func allIDs(n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i)
	}
	return out
}

// sumCountReduce folds "sum:count" encoded values.
func sumCountReduce(key []byte, values [][]byte, out *Emitter) error {
	sum, cnt := 0.0, 0.0
	for _, v := range values {
		colon := bytes.LastIndexByte(v, ':')
		if colon < 0 {
			return malformed(string(v), fmt.Errorf("want sum:count"))
		}
		s, err := strconv.ParseFloat(string(v[:colon]), 64)
		if err != nil {
			return malformed(string(v), err)
		}
		c, err := strconv.ParseFloat(string(v[colon+1:]), 64)
		if err != nil {
			return malformed(string(v), err)
		}
		sum += s
		cnt += c
	}
	var vbuf [64]byte
	v := append(strconv.AppendFloat(vbuf[:0], sum, 'g', -1, 64), ':')
	out.Emit(key, strconv.AppendFloat(v, cnt, 'g', -1, 64))
	return nil
}

func sortInt32(xs []int32) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
