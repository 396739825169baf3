package mapreduce

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"github.com/genbase/genbase/internal/datagen"
	"github.com/genbase/genbase/internal/engine"
	"github.com/genbase/genbase/internal/linalg"
	"github.com/genbase/genbase/internal/plan"
)

// DefaultSplits is the number of HDFS-block splits per table.
const DefaultSplits = 8

// Engine is the Hadoop configuration: tables are text files (line-oriented,
// comma-separated, as Hive external tables), data management runs as
// Hive-style MR jobs, and analytics as Mahout-style MR jobs. Biclustering is
// unsupported ("Hadoop and Postgres + Madlib do not provide sufficient
// analytics functions to run the biclustering query").
type Engine struct {
	// Splits is the number of input splits (default 8).
	Splits int
	// Workers is the map/reduce slot count of the default single-node
	// scheduler (0 = the GENBASE_PARALLEL / NumCPU default). Ignored when
	// Sched is set explicitly. Answers are identical at any value.
	Workers int
	// Sched places map/reduce waves; nil runs single-node on Workers slots.
	Sched TaskScheduler

	micro    [][]string // splits of "g,p,v" lines
	patients []string
	genes    []string
	goLines  [][]string

	numPats, numGenes, numTerms int
}

// New creates a single-node Hadoop engine.
func New() *Engine { return &Engine{} }

// Name implements engine.Engine.
func (e *Engine) Name() string { return "hadoop" }

// Supports implements engine.Engine, derived from the registered physical
// operators: the biclustering kernel is absent from Capabilities (ops.go),
// so any plan containing it is unsupported — no hardcoded query switch.
func (e *Engine) Supports(q engine.QueryID) bool { return plan.Supports(e.Capabilities(), q) }

// Close implements engine.Engine: the engine returns to its not-loaded
// state.
func (e *Engine) Close() error {
	e.micro, e.patients, e.genes, e.goLines = nil, nil, nil, nil
	return nil
}

// SetWorkers pins the map/reduce slot count (serve.Server uses it to split
// the host's worker budget across admission slots). It also re-sizes an
// already-installed default LocalScheduler, since Load materializes Workers
// into it. Call before concurrent queries begin.
func (e *Engine) SetWorkers(n int) {
	e.Workers = n
	if ls, ok := e.Sched.(LocalScheduler); ok {
		ls.Workers = n
		e.Sched = ls
	}
}

func (e *Engine) splits() int {
	if e.Splits > 0 {
		return e.Splits
	}
	return DefaultSplits
}

// Load implements engine.Engine: every table becomes text lines in HDFS
// style.
func (e *Engine) Load(ds *datagen.Dataset) error {
	if e.Sched == nil {
		e.Sched = LocalScheduler{Workers: e.Workers}
	}
	p, g := ds.Dims.Patients, ds.Dims.Genes
	lines := make([]string, 0, p*g)
	var sb strings.Builder
	for pi := 0; pi < p; pi++ {
		row := ds.Expression.Row(pi)
		for gi, v := range row {
			sb.Reset()
			sb.WriteString(strconv.Itoa(gi))
			sb.WriteByte(',')
			sb.WriteString(strconv.Itoa(pi))
			sb.WriteByte(',')
			sb.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
			lines = append(lines, sb.String())
		}
	}
	e.micro = SplitLines(lines, e.splits())

	e.patients = make([]string, p)
	for i, pt := range ds.Patients {
		e.patients[i] = fmt.Sprintf("%d,%d,%d,%d,%d,%s", pt.ID, pt.Age, pt.Gender, pt.Zipcode,
			pt.DiseaseID, strconv.FormatFloat(pt.DrugResponse, 'g', -1, 64))
	}
	e.genes = make([]string, g)
	for i, gn := range ds.Genes {
		e.genes[i] = fmt.Sprintf("%d,%d,%d,%d,%d", gn.ID, gn.Target, gn.Position, gn.Length, gn.Function)
	}
	var goL []string
	for gi := 0; gi < g; gi++ {
		for t := 0; t < ds.Dims.GOTerms; t++ {
			if ds.GOAt(gi, t) == 1 {
				goL = append(goL, strconv.Itoa(gi)+","+strconv.Itoa(t)+",1")
			}
		}
	}
	e.goLines = SplitLines(goL, e.splits())
	e.numPats, e.numGenes, e.numTerms = p, g, ds.Dims.GOTerms
	return nil
}

// Run implements engine.Engine: compile the query into the shared operator
// IR and execute it against this engine's physical operators (ops.go).
func (e *Engine) Run(ctx context.Context, q engine.QueryID, p engine.Params) (*engine.Result, error) {
	if e.micro == nil {
		return nil, fmt.Errorf("mapreduce: not loaded")
	}
	pl, err := plan.Compile(q, p)
	if err != nil {
		return nil, err
	}
	return plan.Execute(ctx, e, pl)
}

// --- Hive-style data management jobs ---

// joinPivotJob joins the microarray with gene/patient id sets (broadcast
// map-side join, as Hive does for small dimension tables) and reduces by
// patient into dense row lines "patient \t v1,v2,...,vk" (the restructure
// step). The driver then parses the rows it needs.
func (e *Engine) joinPivotJob(ctx context.Context, geneIDs, patientIDs []int64) (*linalg.Matrix, error) {
	if patientIDs == nil {
		patientIDs = allIDs(e.numPats)
	}
	gIdx := denseIndex(geneIDs, e.numGenes)
	pIdx := denseIndex(patientIDs, e.numPats)
	k := len(geneIDs)
	job := &Job{
		Name:        "hive-join-pivot",
		Input:       e.micro,
		NumReducers: e.splits(),
		Map: func(line string, out *Emitter) error {
			// Lazy, as Hive's SerDe is: a line whose gene is not selected is
			// dropped on its first field alone.
			gene, rest, _ := strings.Cut(line, ",")
			g, err := strconv.ParseInt(gene, 10, 64)
			if err != nil {
				return malformed(line, err)
			}
			gi := indexOf(gIdx, g)
			if gi < 0 {
				return nil
			}
			var f [2]string // patient, value
			if err := fields(rest, ',', f[:]); err != nil {
				return malformed(line, err)
			}
			p, err := strconv.ParseInt(f[0], 10, 64)
			if err != nil {
				return malformed(line, err)
			}
			if indexOf(pIdx, p) < 0 {
				return nil
			}
			var kbuf, vbuf [32]byte
			v := append(strconv.AppendInt(vbuf[:0], int64(gi), 10), ':')
			out.Emit(appendPad(kbuf[:0], f[0]), append(v, f[1]...))
			return nil
		},
		Reduce: func(key []byte, values [][]byte, out *Emitter) error {
			cells := make([][]byte, k)
			size := k
			for _, v := range values {
				colon := max(bytes.IndexByte(v, ':'), 0)
				i, err := strconv.Atoi(string(v[:colon]))
				if err != nil || i < 0 || i >= k {
					return malformed(string(v), fmt.Errorf("want column:value with column in [0,%d)", k))
				}
				cells[i] = v[colon+1:]
				size += len(v) - colon - 1
			}
			row := make([]byte, 0, size)
			for i, cell := range cells {
				if i > 0 {
					row = append(row, ',')
				}
				if cell == nil {
					cell = []byte("0")
				}
				row = append(row, cell...)
			}
			out.Emit(key, row)
			return nil
		},
	}
	out, err := Run(ctx, job, e.Sched)
	if err != nil {
		return nil, err
	}
	// Driver: parse row lines into the dense matrix — a columnar decode
	// straight into the matrix row, no []string intermediary (see
	// parseFloatFields).
	m := linalg.NewMatrix(len(patientIDs), k)
	err = records(out, func(key, value string) error {
		p, err := parseIndex(key, len(pIdx))
		if err != nil {
			return err
		}
		if pIdx[p] < 0 {
			return fmt.Errorf("patient %d was not selected", p)
		}
		return parseFloatFields(value, m.Row(int(pIdx[p])), false)
	})
	if err != nil {
		return nil, err
	}
	return m, nil
}

// denseIndex maps each id in [0, n) to its position in ids, and to -1 when
// it is not among them.
func denseIndex(ids []int64, n int) []int32 {
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = -1
	}
	for i, id := range ids {
		if id >= 0 && id < int64(n) {
			idx[id] = int32(i)
		}
	}
	return idx
}

// indexOf is idx[id], and -1 for an id outside the table.
func indexOf(idx []int32, id int64) int32 {
	if id < 0 || id >= int64(len(idx)) {
		return -1
	}
	return idx[id]
}

func collectIDs(parts [][]string) ([]int64, error) {
	var ids []int64
	err := records(parts, func(key, _ string) error {
		id, err := parsePadded(key)
		ids = append(ids, int64(id))
		return err
	})
	if err != nil {
		return nil, err
	}
	// Reducer partitions interleave keys; sort numerically.
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	return ids, nil
}
