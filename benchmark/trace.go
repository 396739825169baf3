package main

import (
	"context"
	"encoding/json"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/genbase/genbase/internal/bicluster"
	"github.com/genbase/genbase/internal/engine"
	"github.com/genbase/genbase/internal/linalg"
	"github.com/genbase/genbase/internal/plan"
	"github.com/genbase/genbase/internal/serve"
)

// span is one timed interval at a layer boundary. Spans of one request share
// Req; Parent is the id of the span that caused this one (-1 for the
// request's root). Everything is recorded from this package, around the calls
// into each layer — spans inside the program are a later issue.
type span struct {
	Req     uint64 `json:"req"`
	ID      int32  `json:"id"`
	Parent  int32  `json:"parent"`
	Name    string `json:"name"`
	Label   string `json:"label,omitempty"` // root only: "<member>/<query>"
	StartNs int64  `json:"start_ns"`        // since the recorder's epoch
	DurNs   int64  `json:"dur_ns"`
}

// recorder keeps every span in memory; write dumps them when the run ends.
type recorder struct {
	t0   time.Time
	next atomic.Uint64
	mu   sync.Mutex
	all  []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// reqTrace collects one request's spans on the requesting goroutine (no
// locking until done hands them to the recorder).
type reqTrace struct {
	rec   *recorder
	req   uint64
	spans []span
	open  []int32
}

func (r *recorder) request(label string) *reqTrace {
	t := &reqTrace{rec: r, req: r.next.Add(1)}
	t.begin("request")
	t.spans[0].Label = label
	return t
}

func (t *reqTrace) begin(name string) int32 {
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Req: t.req, ID: id, Parent: parent, Name: name,
		StartNs: time.Since(t.rec.t0).Nanoseconds()})
	t.open = append(t.open, id)
	return id
}

func (t *reqTrace) end(id int32) {
	t.spans[id].DurNs = time.Since(t.rec.t0).Nanoseconds() - t.spans[id].StartNs
	t.open = t.open[:len(t.open)-1]
}

// timed opens a span and returns the func that closes it (defer-friendly).
func (t *reqTrace) timed(name string) func() {
	id := t.begin(name)
	return func() { t.end(id) }
}

// done closes the root span and publishes the request's spans.
func (t *reqTrace) done() []span {
	t.end(0)
	t.rec.mu.Lock()
	t.rec.all = append(t.rec.all, t.spans...)
	t.rec.mu.Unlock()
	return t.spans
}

// selfNs is a span's duration minus the part its children cover.
func selfNs(spans []span, id int32) int64 {
	self := spans[id].DurNs
	for i := range spans {
		if spans[i].Parent == id {
			self -= spans[i].DurNs
		}
	}
	return self
}

// write dumps the spans plus unnamed detail rows (the per-cell Figure-1
// table, the router's per-backend shares) as one JSON document.
func (r *recorder) write(path string, header map[string]any, detail []map[string]any) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	blob, err := json.Marshal(map[string]any{"header": header, "detail": detail, "spans": r.all})
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}

// opKind maps a plan.Physical method to the per-layer metric it feeds.
func opKind(method string) string {
	switch {
	case method == "SelectIDs":
		return "select"
	case method == "Pivot", method == "ScanFloats", method == "SampleMeans":
		return "pivot"
	case method == "GOMembers", method == "GeneMeta":
		return "meta"
	case strings.HasPrefix(method, "Run"):
		return "kernel"
	}
	return ""
}

// tracedPhysical decorates a single-node engine's operator surface: every
// method call becomes a "<module>.<Method>" span under the open plan.execute
// span. Driving it with plan.Compile + plan.Execute is exactly what each
// engine's Run does, so the traced path executes the same code.
type tracedPhysical struct {
	plan.Physical[*linalg.Matrix]
	t      *reqTrace
	module string
}

func (p *tracedPhysical) op(method string) func() { return p.t.timed(p.module + "." + method) }

func (p *tracedPhysical) SelectIDs(ctx context.Context, table string, preds []plan.Pred) ([]int64, error) {
	defer p.op("SelectIDs")()
	return p.Physical.SelectIDs(ctx, table, preds)
}

func (p *tracedPhysical) ScanFloats(ctx context.Context, table, col string, ids []int64) ([]float64, error) {
	defer p.op("ScanFloats")()
	return p.Physical.ScanFloats(ctx, table, col, ids)
}

func (p *tracedPhysical) Pivot(ctx context.Context, patientIDs, geneIDs []int64) (*linalg.Matrix, error) {
	defer p.op("Pivot")()
	return p.Physical.Pivot(ctx, patientIDs, geneIDs)
}

func (p *tracedPhysical) SampleMeans(ctx context.Context, step int) ([]float64, int, error) {
	defer p.op("SampleMeans")()
	return p.Physical.SampleMeans(ctx, step)
}

func (p *tracedPhysical) GOMembers(ctx context.Context) ([][]int32, error) {
	defer p.op("GOMembers")()
	return p.Physical.GOMembers(ctx)
}

func (p *tracedPhysical) GeneMeta(ctx context.Context) (engine.GeneMeta, error) {
	defer p.op("GeneMeta")()
	return p.Physical.GeneMeta(ctx)
}

func (p *tracedPhysical) RunRegression(ctx context.Context, sw *engine.StopWatch, x *linalg.Matrix, y []float64) ([]float64, float64, error) {
	defer p.op("RunRegression")()
	return p.Physical.RunRegression(ctx, sw, x, y)
}

func (p *tracedPhysical) RunCovariance(ctx context.Context, sw *engine.StopWatch, x *linalg.Matrix) (*linalg.Matrix, error) {
	defer p.op("RunCovariance")()
	return p.Physical.RunCovariance(ctx, sw, x)
}

func (p *tracedPhysical) RunSVD(ctx context.Context, sw *engine.StopWatch, x *linalg.Matrix, k int, seed uint64) ([]float64, error) {
	defer p.op("RunSVD")()
	return p.Physical.RunSVD(ctx, sw, x, k, seed)
}

func (p *tracedPhysical) RunBicluster(ctx context.Context, sw *engine.StopWatch, x *linalg.Matrix, maxB int, seed uint64) ([]bicluster.Bicluster, error) {
	defer p.op("RunBicluster")()
	return p.Physical.RunBicluster(ctx, sw, x, maxB, seed)
}

func (p *tracedPhysical) RunStats(ctx context.Context, sw *engine.StopWatch, means []float64, members [][]int32, sampled int) (*engine.StatsAnswer, error) {
	defer p.op("RunStats")()
	return p.Physical.RunStats(ctx, sw, means, members, sampled)
}

// served is what a traced serve backend reports about the one engine run a
// request caused: which fleet member ran it and for how long. The client puts
// a *served in the request context; the router and server run the backend on
// the caller's goroutine, so the value arrives without any change to them.
type served struct {
	backend  string
	engineNs int64
}

type servedKey struct{}

// tracedEngine wraps a loaded engine behind serve.Server for the traced run:
// it records the engine.Run interval into the request's *served. SetWorkers
// is forwarded because serve.New and Swap pin the per-slot worker share
// through it.
type tracedEngine struct {
	engine.Engine
	key string
}

func (e *tracedEngine) Run(ctx context.Context, q engine.QueryID, p engine.Params) (*engine.Result, error) {
	start := time.Now()
	res, err := e.Engine.Run(ctx, q, p)
	if sv, ok := ctx.Value(servedKey{}).(*served); ok {
		sv.backend, sv.engineNs = e.key, time.Since(start).Nanoseconds()
	}
	return res, err
}

func (e *tracedEngine) SetWorkers(n int) {
	if ws, ok := e.Engine.(serve.WorkerSetter); ok {
		ws.SetWorkers(n)
	}
}
