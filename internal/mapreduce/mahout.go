package mapreduce

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"github.com/genbase/genbase/internal/engine"
	"github.com/genbase/genbase/internal/linalg"
)

// The Mahout-style analytics: every kernel is a chain of MR jobs over text
// matrix rows, with in-mapper combining for partial aggregates and no BLAS
// anywhere — "matrix operations are not done through a high performance
// linear algebra package".
//
// What a job shuffles is what Mahout's VectorWritable jobs shuffle: one
// record per vector. A mapper emits its partial gram as one
// "tag:i \t g_ii,…,g_ik" record per row and a partial vector (column sums,
// a Lanczos mat-vec's z, Xᵀy, the residual sum of squares) as one
// comma-joined record; sumReduce adds the mappers' vectors element-wise in
// merge order, so every float has the bits that summing one element-keyed
// record at a time gave (mahout_ref_test.go keeps that layout as the
// reference). The drivers read every expected row or vector exactly once.

// matrixLines renders a dense matrix as Mahout-style row files
// "rowid \t v1,v2,..." split for MR input. This materialization-to-text
// between DM and analytics jobs is part of Hadoop's cost.
func matrixLines(m *linalg.Matrix, splits int) [][]string {
	lines := make([]string, m.Rows)
	var buf []byte
	for i := range lines {
		buf = appendFloats(append(appendPadInt(buf[:0], i), '\t'), m.Row(i))
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
		err = parseFloatFields(f[1], dst, false)
	}
	if err != nil {
		return 0, malformed(line, err)
	}
	return id, nil
}

// parseFloatFields decodes a comma-separated float vector into dst in place
// — the text engine's columnar batch decode — or, with add set, adds each
// field to its slot. s must hold exactly len(dst) fields. Unlike
// strings.Split it allocates nothing: every Mahout-style job parses each
// matrix row and each shuffled partial vector through here.
func parseFloatFields[S string | []byte](s S, dst []float64, add bool) error {
	j, start := 0, 0
	for k := 0; k <= len(s); k++ {
		if k == len(s) || s[k] == ',' {
			if j >= len(dst) {
				return fmt.Errorf("mapreduce: row has more than %d fields", len(dst))
			}
			v, err := strconv.ParseFloat(string(s[start:k]), 64)
			if err != nil {
				return err
			}
			if add {
				dst[j] += v
			} else {
				dst[j] = v
			}
			j++
			start = k + 1
		}
	}
	if j != len(dst) {
		return fmt.Errorf("mapreduce: row has %d fields, want %d", j, len(dst))
	}
	return nil
}

// appendFloats appends v as comma-separated shortest round-trip decimals.
func appendFloats(dst []byte, v []float64) []byte {
	for j, x := range v {
		if j > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendFloat(dst, x, 'g', -1, 64)
	}
	return dst
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

// emitGram emits the upper triangle of the k×k partial gram as one
// "tag:i \t g_ii,…,g_ik" record per row, in key order: the row vectors a
// Mahout matrix job shuffles, not one record per element.
func emitGram(out *Emitter, tag byte, gram []float64, k int) {
	var kbuf [16]byte
	var row []byte
	for i := 0; i < k && out.err == nil; i++ {
		row = appendFloats(row[:0], gram[i*k+i:(i+1)*k])
		out.Emit(appendPadInt(append(kbuf[:0], tag, ':'), i), row)
	}
}

// emitVector emits a mapper's whole partial vector as the one record
// "key \t v_0,…,v_n".
func emitVector(out *Emitter, key string, v []float64) {
	out.Emit([]byte(key), appendFloats(nil, v))
}

// errMissing and errDuplicate are a driver's complaints about a record that
// must arrive exactly once.
var (
	errMissing   = errors.New("record missing")
	errDuplicate = errors.New("record arrived twice")
)

// readGram is the driver's read of a gram job's output. Each "tag:i" record
// is row i of the upper triangle, g_ii…g_ik, and fills gram symmetrically;
// the "y" record fills aty. Every row, and y when aty is set, must arrive
// exactly once.
func readGram(parts [][]string, tag byte, gram *linalg.Matrix, aty []float64) error {
	k := gram.Rows
	seen := make([]bool, k+1) // the rows, then y
	row := make([]float64, k)
	prefix := string([]byte{tag, ':'})
	err := records(parts, func(key, value string) error {
		i, dst := k, aty
		if key != "y" || aty == nil {
			rest, ok := strings.CutPrefix(key, prefix)
			if !ok {
				return fmt.Errorf("want a %q key", prefix)
			}
			var err error
			if i, err = parseIndex(rest, k); err != nil {
				return err
			}
			dst = row[:k-i]
		}
		if seen[i] {
			return errDuplicate
		}
		seen[i] = true
		if err := parseFloatFields(value, dst, false); err != nil {
			return err
		}
		if i < k {
			for d, v := range dst {
				gram.Set(i, i+d, v)
				gram.Set(i+d, i, v)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	for i, ok := range seen {
		switch {
		case ok:
		case i < k:
			return malformed(string(appendPadInt([]byte{tag, ':'}, i)), errMissing)
		case aty != nil:
			return malformed("y", errMissing)
		}
	}
	return nil
}

// readVector is the driver's read of a vector job's output: exactly one
// "key \t v_0,…,v_n" record, holding len(dst) fields.
func readVector(parts [][]string, key string, dst []float64) error {
	n := 0
	err := records(parts, func(k, value string) error {
		switch n++; {
		case k != key:
			return fmt.Errorf("want key %q", key)
		case n > 1:
			return errDuplicate
		}
		return parseFloatFields(value, dst, false)
	})
	if err == nil && n == 0 {
		err = malformed(key, errMissing)
	}
	return err
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
			emitVector(out, "y", aty)
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
	if err := readGram(out, 'g', gram, aty); err != nil {
		return nil, nil, err
	}
	return gram, aty, nil
}

// sumReduce adds the mappers' partial vectors element-wise, with text
// round-trips as a streaming reducer would. Every value is a comma-separated
// vector of one length (a scalar is a 1-vector), and element j sums to
// 0 + v_0[j] + v_1[j] + … in merge order, mapper by mapper: the order, and
// so the bits, of summing one element-keyed record at a time.
func sumReduce(key []byte, values [][]byte, out *Emitter) error {
	// A vector that fits in small, such as a scalar, allocates nothing.
	var small [4]float64
	n := bytes.Count(values[0], []byte{','}) + 1
	sums := slices.Grow(small[:0], n)[:n]
	for _, v := range values {
		if err := parseFloatFields(v, sums, true); err != nil {
			return malformed(string(v), err)
		}
	}
	// The sums' text is about as long as a partial's: grow once, up front.
	var text [64]byte
	out.Emit(key, appendFloats(slices.Grow(text[:0], 2*len(values[0])), sums))
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
			emitVector(out, "colsums", sums)
			return nil
		},
		Reduce: sumReduce,
	}
	out, err := Run(ctx, job, e.Sched)
	if err != nil {
		return nil, err
	}
	means := make([]float64, k)
	if err := readVector(out, "colsums", means); err != nil {
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
	out, err := Run(ctx, e.centeredGram(ctx, matrix, k, means), e.Sched)
	if err != nil {
		return nil, err
	}
	gram := linalg.NewMatrix(k, k)
	if err := readGram(out, 'c', gram, nil); err != nil {
		return nil, err
	}
	return gram, nil
}

// centeredGram is centeredGramJob's job: each mapper folds its centered rows
// into a partial gram and emits the gram's rows.
func (e *Engine) centeredGram(ctx context.Context, matrix [][]string, k int, means []float64) *Job {
	return &Job{
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
}

// mrATAOperator runs one MR job per Lanczos iteration: each mapper parses
// its rows, computes y_i = row·x and accumulates z += y_i·row locally, then
// a reducer sums the partial z vectors. Exactly Mahout's DistributedLanczos
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
			emitVector(out, "z", z)
			return nil
		},
		Reduce: sumReduce,
	}
	res, err := Run(o.ctx, job, o.e.Sched)
	if err == nil {
		err = readVector(res, "z", out)
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
			emitVector(out, "ssres", []float64{ss})
			return nil
		},
		Reduce: sumReduce,
	}
	out, err := Run(ctx, job, e.Sched)
	if err != nil {
		return 0, err
	}
	var ss [1]float64
	err = readVector(out, "ssres", ss[:])
	return ss[0], err
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
