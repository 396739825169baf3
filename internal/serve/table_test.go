package serve

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/genbase/genbase/internal/cost"
	"github.com/genbase/genbase/internal/datagen"
	"github.com/genbase/genbase/internal/engine"
)

// tableEngine is the engine behind TestServeRequestTable: every answer
// carries its generation's tag, every Run call is counted (failed ones too),
// and failure, support and slowness are switchable per script.
type tableEngine struct {
	tag   float64
	noQ4  bool          // Supports(Q4) is false and Run refuses it
	calls *atomic.Int64 // Run calls, shared by every generation of a script
	fail  atomic.Bool
	delay time.Duration
}

func (e *tableEngine) Name() string                   { return "stub" }
func (e *tableEngine) Load(*datagen.Dataset) error    { return nil }
func (e *tableEngine) Supports(q engine.QueryID) bool { return !(e.noQ4 && q == engine.Q4SVD) }
func (e *tableEngine) Close() error                   { return nil }

func (e *tableEngine) Run(ctx context.Context, q engine.QueryID, p engine.Params) (*engine.Result, error) {
	e.calls.Add(1)
	if !e.Supports(q) {
		return nil, fmt.Errorf("stub: %s: %w", q, engine.ErrUnsupported)
	}
	if e.fail.Load() {
		return nil, errEngineDown
	}
	if ec, ok := ctx.(*expiringCtx); ok {
		ec.expire()
	}
	if e.delay > 0 {
		select {
		case <-time.After(e.delay):
		case <-ctx.Done():
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return &engine.Result{Query: q, Answer: &engine.SVDAnswer{SingularValues: []float64{e.tag}}}, nil
}

// expiringCtx is a caller context whose deadline passes the moment the
// engine starts executing, so the deadline lands during execution on every
// run, however the scheduler orders the request's path.
type expiringCtx struct {
	context.Context
	once sync.Once
	done chan struct{}
}

func newExpiringCtx() *expiringCtx {
	return &expiringCtx{Context: context.Background(), done: make(chan struct{})}
}

func (c *expiringCtx) expire()               { c.once.Do(func() { close(c.done) }) }
func (c *expiringCtx) Done() <-chan struct{} { return c.done }

func (c *expiringCtx) Err() error {
	select {
	case <-c.done:
		return context.DeadlineExceeded
	default:
		return nil
	}
}

// tableRun is one script running on one front; lines is its transcript.
type tableRun struct {
	r     Runner
	srv   *Server // the Server the front serves through (the Swap target)
	eng   *tableEngine
	calls atomic.Int64
	lines []string
}

func (x *tableRun) run(ctx context.Context, p engine.Params) {
	res, hit, err := x.r.Run(ctx, engine.Q4SVD, p)
	x.lines = append(x.lines, fmt.Sprintf("%s %s tag=%s calls=%d", hitWord(hit), errClass(err), answerTag(res), x.calls.Load()))
}

func hitWord(hit bool) string {
	if hit {
		return "hit"
	}
	return "miss"
}

func answerTag(res *engine.Result) string {
	if res == nil {
		return "-"
	}
	return fmt.Sprint(res.Answer.(*engine.SVDAnswer).SingularValues[0])
}

func errClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, engine.ErrBadParams):
		return "badparams"
	case errors.Is(err, engine.ErrUnsupported):
		return "unsupported"
	case errors.Is(err, engine.ErrDeadlineExceeded):
		return "deadline"
	case errors.Is(err, engine.ErrOverload):
		return "overload"
	case errors.Is(err, context.Canceled):
		return "canceled"
	case errors.Is(err, errEngineDown):
		return "enginedown"
	}
	return "other(" + err.Error() + ")"
}

// statsLine prints a final Stats snapshot. After a stampede only sums are
// exact: how many twins coalesced rather than hit plainly, and how many ran
// side by side without a cache, depend on scheduling. So there it prints
// misses less coalesced and leaves the peak out.
func statsLine(st Stats, stampede bool) string {
	head := fmt.Sprintf("admitted=%d inflight=%d peak=%d hits=%d misses=%d coalesced=%d",
		st.Admitted, st.InFlight, st.PeakInFlight, st.CacheHits, st.CacheMisses, st.Coalesced)
	if stampede {
		head = fmt.Sprintf("admitted=%d inflight=%d hits=%d misses-coalesced=%d",
			st.Admitted, st.InFlight, st.CacheHits, st.CacheMisses-st.Coalesced)
	}
	return fmt.Sprintf("stats %s shed=%d denials=%d deadlined=%d failures=%d degraded=%d open=%v",
		head, st.Shed, st.BreakerDenials, st.Deadlined, st.EngineFailures, st.Degraded, st.BreakerOpen)
}

// TestServeRequestTable holds the serving request path to a recorded table.
// Each script runs on three fronts: a Server, a Server built with the inert
// DisableCache (its transcript must equal the plain Server's), and a Router
// over one Server. Every step pins its hit flag, error class, answer tag and
// the engine's Run calls so far; the last line pins the front's final Stats.
// On a mismatch it logs the observed table in source form.
func TestServeRequestTable(t *testing.T) {
	fronts := []struct {
		name   string
		sameAs string // the front whose recorded cells this one must match
		build  func(t *testing.T, eng engine.Engine) (Runner, *Server)
	}{
		{name: "server", build: func(t *testing.T, eng engine.Engine) (Runner, *Server) {
			s := New(eng, Options{})
			return s, s
		}},
		{name: "disablecache", sameAs: "server", build: func(t *testing.T, eng engine.Engine) (Runner, *Server) {
			s := New(eng, Options{DisableCache: true})
			return s, s
		}},
		{name: "router", build: func(t *testing.T, eng engine.Engine) (Runner, *Server) {
			s := New(eng, Options{})
			r, err := NewRouter([]Backend{{Server: s, Config: cost.Config{System: "stub"}, Class: "dense"}}, RouterOptions{})
			if err != nil {
				t.Fatal(err)
			}
			return r, s
		}},
	}
	bg := context.Background()
	p := engine.DefaultParams()
	scripts := []struct {
		name  string
		noQ4  bool
		delay time.Duration
		steps func(x *tableRun)
	}{
		{name: "repeat", steps: func(x *tableRun) {
			for i := 0; i < 3; i++ {
				x.run(bg, p)
			}
		}},
		{name: "ignored-params", steps: func(x *tableRun) {
			x.run(bg, p)
			twin := p // Q4's plan reads none of these
			twin.MaxAge += 25
			twin.SampleFrac = 0.5
			twin.DiseaseID++
			twin.Gender = 'F'
			x.run(bg, twin)
			read := p // Q4's plan reads SVDK
			read.SVDK++
			x.run(bg, read)
		}},
		{name: "bad-params", steps: func(x *tableRun) {
			bad := p
			bad.SVDK = 0
			x.run(bg, bad)
		}},
		{name: "unsupported", noQ4: true, steps: func(x *tableRun) {
			x.run(bg, p)
		}},
		{name: "deadline", steps: func(x *tableRun) {
			x.run(newExpiringCtx(), p)
			x.run(bg, p)
		}},
		{name: "deadline-breaker", steps: func(x *tableRun) {
			// Requests whose own deadline passes mid-query are the
			// caller's doing: however many there are, the breaker stays
			// closed and the next plain request reaches the engine.
			for i := 0; i < DefaultBreakerThreshold; i++ {
				x.run(newExpiringCtx(), p)
			}
			x.run(bg, p)
		}},
		{name: "cancelled", steps: func(x *tableRun) {
			ctx, cancel := context.WithCancel(bg)
			cancel()
			x.run(ctx, p)
			x.run(bg, p)
		}},
		{name: "expired", steps: func(x *tableRun) {
			ctx, cancel := context.WithDeadline(bg, time.Unix(0, 0))
			defer cancel()
			x.run(ctx, p)
			x.run(bg, p)
		}},
		{name: "swap", steps: func(x *tableRun) {
			x.run(bg, p)
			next := &tableEngine{tag: 20, calls: &x.calls}
			old := x.srv.Swap(next, 1)
			x.lines = append(x.lines, fmt.Sprintf("swap epoch=%d displaced=%v", x.srv.Epoch(), old == engine.Engine(x.eng)))
			x.eng = next
			x.run(bg, p)
			x.run(bg, p)
		}},
		{name: "breaker", steps: func(x *tableRun) {
			x.eng.fail.Store(true)
			for i := 0; i < DefaultBreakerThreshold; i++ {
				x.run(bg, p)
			}
			x.eng.fail.Store(false)
			for i := 0; i < breakerProbeEvery; i++ {
				x.run(bg, p)
			}
		}},
		{name: "stampede", delay: 10 * time.Millisecond, steps: func(x *tableRun) {
			const twins = 8
			var hits atomic.Int64
			var wg sync.WaitGroup
			classes := make([]string, twins)
			for i := 0; i < twins; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					res, hit, err := x.r.Run(bg, engine.Q4SVD, p)
					if hit {
						hits.Add(1)
					}
					classes[i] = errClass(err) + " tag=" + answerTag(res)
				}(i)
			}
			wg.Wait()
			sort.Strings(classes)
			x.lines = append(x.lines, fmt.Sprintf("%d twins: %s .. %s hits=%d calls=%d",
				twins, classes[0], classes[twins-1], hits.Load(), x.calls.Load()))
		}},
	}

	got := map[string]string{}
	for _, sc := range scripts {
		for _, fr := range fronts {
			name := sc.name + "/" + fr.name
			t.Run(name, func(t *testing.T) {
				noLeak(t)
				x := &tableRun{}
				x.eng = &tableEngine{tag: 10, noQ4: sc.noQ4, calls: &x.calls, delay: sc.delay}
				x.r, x.srv = fr.build(t, x.eng)
				sc.steps(x)
				st := x.r.Stats()
				if sc.name == "stampede" && st.PeakInFlight > DefaultMaxConcurrent {
					t.Errorf("peak in flight %d over the admission width %d", st.PeakInFlight, DefaultMaxConcurrent)
				}
				x.lines = append(x.lines, statsLine(st, sc.name == "stampede"))
				got[name] = strings.Join(x.lines, "\n")
				want := requestTable[name]
				if fr.sameAs != "" {
					want = requestTable[sc.name+"/"+fr.sameAs]
				}
				if got[name] != want {
					t.Errorf("transcript\n%s\nwant\n%s", got[name], want)
				}
			})
		}
	}
	if t.Failed() {
		var b strings.Builder
		b.WriteString("observed table:\nvar requestTable = map[string]string{\n")
		for _, sc := range scripts {
			for _, fr := range fronts {
				if fr.sameAs != "" {
					continue
				}
				name := sc.name + "/" + fr.name
				fmt.Fprintf(&b, "\t%q: `%s`,\n", name, got[name])
			}
		}
		b.WriteString("}\n")
		t.Log(b.String())
	}
}

// requestTable is the recorded transcript of every (script, front) cell.
var requestTable = map[string]string{
	"repeat/server": `miss ok tag=10 calls=1
hit ok tag=10 calls=1
hit ok tag=10 calls=1
stats admitted=1 inflight=0 peak=1 hits=2 misses=1 coalesced=0 shed=0 denials=0 deadlined=0 failures=0 degraded=0 open=false`,
	"repeat/router": `miss ok tag=10 calls=1
hit ok tag=10 calls=1
hit ok tag=10 calls=1
stats admitted=1 inflight=0 peak=1 hits=2 misses=1 coalesced=0 shed=0 denials=0 deadlined=0 failures=0 degraded=0 open=false`,
	"ignored-params/server": `miss ok tag=10 calls=1
hit ok tag=10 calls=1
miss ok tag=10 calls=2
stats admitted=2 inflight=0 peak=1 hits=1 misses=2 coalesced=0 shed=0 denials=0 deadlined=0 failures=0 degraded=0 open=false`,
	"ignored-params/router": `miss ok tag=10 calls=1
hit ok tag=10 calls=1
miss ok tag=10 calls=2
stats admitted=2 inflight=0 peak=1 hits=1 misses=2 coalesced=0 shed=0 denials=0 deadlined=0 failures=0 degraded=0 open=false`,
	"bad-params/server": `miss badparams tag=- calls=0
stats admitted=0 inflight=0 peak=0 hits=0 misses=0 coalesced=0 shed=0 denials=0 deadlined=0 failures=0 degraded=0 open=false`,
	"bad-params/router": `miss badparams tag=- calls=0
stats admitted=0 inflight=0 peak=0 hits=0 misses=0 coalesced=0 shed=0 denials=0 deadlined=0 failures=0 degraded=0 open=false`,
	"unsupported/server": `miss unsupported tag=- calls=0
stats admitted=0 inflight=0 peak=0 hits=0 misses=0 coalesced=0 shed=0 denials=0 deadlined=0 failures=0 degraded=0 open=false`,
	"unsupported/router": `miss unsupported tag=- calls=0
stats admitted=0 inflight=0 peak=0 hits=0 misses=0 coalesced=0 shed=0 denials=0 deadlined=0 failures=0 degraded=0 open=false`,
	"deadline/server": `miss deadline tag=- calls=1
miss ok tag=10 calls=2
stats admitted=2 inflight=0 peak=1 hits=0 misses=2 coalesced=0 shed=0 denials=0 deadlined=1 failures=0 degraded=0 open=false`,
	"deadline-breaker/server": `miss deadline tag=- calls=1
miss deadline tag=- calls=2
miss deadline tag=- calls=3
miss deadline tag=- calls=4
miss deadline tag=- calls=5
miss ok tag=10 calls=6
stats admitted=6 inflight=0 peak=1 hits=0 misses=6 coalesced=0 shed=0 denials=0 deadlined=5 failures=0 degraded=0 open=false`,
	"deadline/router": `miss deadline tag=- calls=1
miss ok tag=10 calls=2
stats admitted=2 inflight=0 peak=1 hits=0 misses=2 coalesced=0 shed=0 denials=0 deadlined=1 failures=0 degraded=0 open=false`,
	"deadline-breaker/router": `miss deadline tag=- calls=1
miss deadline tag=- calls=2
miss deadline tag=- calls=3
miss deadline tag=- calls=4
miss deadline tag=- calls=5
miss ok tag=10 calls=6
stats admitted=6 inflight=0 peak=1 hits=0 misses=6 coalesced=0 shed=0 denials=0 deadlined=5 failures=0 degraded=0 open=false`,
	"cancelled/server": `miss canceled tag=- calls=0
miss ok tag=10 calls=1
stats admitted=1 inflight=0 peak=1 hits=0 misses=2 coalesced=0 shed=0 denials=0 deadlined=0 failures=0 degraded=0 open=false`,
	"cancelled/router": `miss canceled tag=- calls=0
miss ok tag=10 calls=1
stats admitted=1 inflight=0 peak=1 hits=0 misses=2 coalesced=0 shed=0 denials=0 deadlined=0 failures=0 degraded=0 open=false`,
	"expired/server": `miss deadline tag=- calls=0
miss ok tag=10 calls=1
stats admitted=1 inflight=0 peak=1 hits=0 misses=2 coalesced=0 shed=0 denials=0 deadlined=1 failures=0 degraded=0 open=false`,
	"expired/router": `miss deadline tag=- calls=0
miss ok tag=10 calls=1
stats admitted=1 inflight=0 peak=1 hits=0 misses=2 coalesced=0 shed=0 denials=0 deadlined=1 failures=0 degraded=0 open=false`,
	"swap/server": `miss ok tag=10 calls=1
swap epoch=1 displaced=true
miss ok tag=20 calls=2
hit ok tag=20 calls=2
stats admitted=2 inflight=0 peak=1 hits=1 misses=2 coalesced=0 shed=0 denials=0 deadlined=0 failures=0 degraded=0 open=false`,
	"swap/router": `miss ok tag=10 calls=1
swap epoch=1 displaced=true
miss ok tag=20 calls=2
hit ok tag=20 calls=2
stats admitted=2 inflight=0 peak=1 hits=1 misses=2 coalesced=0 shed=0 denials=0 deadlined=0 failures=0 degraded=0 open=false`,
	"breaker/server": `miss enginedown tag=- calls=1
miss enginedown tag=- calls=2
miss enginedown tag=- calls=3
miss enginedown tag=- calls=4
miss enginedown tag=- calls=5
miss overload tag=- calls=5
miss overload tag=- calls=5
miss overload tag=- calls=5
miss overload tag=- calls=5
miss overload tag=- calls=5
miss overload tag=- calls=5
miss overload tag=- calls=5
miss ok tag=10 calls=6
stats admitted=6 inflight=0 peak=1 hits=0 misses=13 coalesced=0 shed=7 denials=7 deadlined=0 failures=5 degraded=0 open=false`,
	"breaker/router": `miss enginedown tag=- calls=1
miss enginedown tag=- calls=2
miss enginedown tag=- calls=3
miss enginedown tag=- calls=4
miss enginedown tag=- calls=5
miss overload tag=- calls=5
miss overload tag=- calls=5
miss overload tag=- calls=5
miss overload tag=- calls=5
miss overload tag=- calls=5
miss overload tag=- calls=5
miss overload tag=- calls=5
miss ok tag=10 calls=6
stats admitted=6 inflight=0 peak=1 hits=0 misses=13 coalesced=0 shed=7 denials=7 deadlined=0 failures=5 degraded=0 open=false`,
	"stampede/server": `8 twins: ok tag=10 .. ok tag=10 hits=7 calls=1
stats admitted=1 inflight=0 hits=7 misses-coalesced=1 shed=0 denials=0 deadlined=0 failures=0 degraded=0 open=false`,
	"stampede/router": `8 twins: ok tag=10 .. ok tag=10 hits=7 calls=1
stats admitted=1 inflight=0 hits=7 misses-coalesced=1 shed=0 denials=0 deadlined=0 failures=0 degraded=0 open=false`,
}
