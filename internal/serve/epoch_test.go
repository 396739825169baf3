package serve

import (
	"context"
	"sync"
	"testing"

	"github.com/genbase/genbase/internal/cost"
	"github.com/genbase/genbase/internal/engine"
)

// epochStub tags every answer with a value, so tests can tell which engine
// generation actually executed.
type epochStub struct {
	stubEngine
	answer  float64
	release chan struct{} // when non-nil, Run blocks until closed
	entered chan struct{} // signaled once Run is inside the engine
}

func (s *epochStub) Run(ctx context.Context, q engine.QueryID, p engine.Params) (*engine.Result, error) {
	if s.entered != nil {
		s.entered <- struct{}{}
	}
	if s.release != nil {
		select {
		case <-s.release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	s.runs.Add(1)
	return &engine.Result{Query: q, Answer: &engine.SVDAnswer{SingularValues: []float64{s.answer}}}, nil
}

func answerOf(t *testing.T, res *engine.Result) float64 {
	t.Helper()
	return res.Answer.(*engine.SVDAnswer).SingularValues[0]
}

// TestWALEpochSwapRekeysCache: the same fingerprint served before and after a
// Swap must execute on both generations and cache both answers independently
// — epoch advance re-keys instead of evicting, and the old epoch's entry
// stays valid.
func TestWALEpochSwapRekeysCache(t *testing.T) {
	noLeak(t)
	e0 := &epochStub{stubEngine: stubEngine{name: "stub"}, answer: 10}
	e1 := &epochStub{stubEngine: stubEngine{name: "stub"}, answer: 20}
	srv := New(e0, Options{MaxConcurrent: 2})
	p := engine.DefaultParams()

	res, hit, err := srv.Run(context.Background(), engine.Q4SVD, p)
	if err != nil || hit || answerOf(t, res) != 10 {
		t.Fatalf("epoch 0 miss: res %v hit %v err %v", res, hit, err)
	}
	if res, hit, _ := srv.Run(context.Background(), engine.Q4SVD, p); !hit || answerOf(t, res) != 10 {
		t.Fatalf("epoch 0 repeat not served from cache")
	}

	if old := srv.Swap(e1, 1); old != e0 {
		t.Fatal("Swap did not return the displaced engine")
	}
	if srv.Epoch() != 1 {
		t.Fatalf("epoch %d after swap, want 1", srv.Epoch())
	}
	// Same fingerprint, new epoch: the cached epoch-0 answer must NOT serve;
	// the new generation executes and caches under the new key.
	res, hit, err = srv.Run(context.Background(), engine.Q4SVD, p)
	if err != nil || hit || answerOf(t, res) != 20 {
		t.Fatalf("epoch 1 first run: answer %v hit %v err %v (stale epoch-0 answer served?)", res.Answer, hit, err)
	}
	if res, hit, _ := srv.Run(context.Background(), engine.Q4SVD, p); !hit || answerOf(t, res) != 20 {
		t.Fatal("epoch 1 repeat not served from cache")
	}
	if e0.runs.Load() != 1 || e1.runs.Load() != 1 {
		t.Fatalf("runs: old %d new %d, want 1/1", e0.runs.Load(), e1.runs.Load())
	}
	// Worker share carried over to the swapped-in engine.
	if e1.workers.Load() != e0.workers.Load() {
		t.Fatalf("swap did not re-pin workers: %d vs %d", e1.workers.Load(), e0.workers.Load())
	}
}

// TestWALEpochPinnedAtAdmission: a request in flight when Swap lands still
// executes on — and files its cache entry under — the generation it pinned at
// admission. The displaced engine stays usable until the request drains.
func TestWALEpochPinnedAtAdmission(t *testing.T) {
	noLeak(t)
	e0 := &epochStub{
		stubEngine: stubEngine{name: "stub"},
		answer:     10,
		release:    make(chan struct{}),
		entered:    make(chan struct{}, 1),
	}
	e1 := &epochStub{stubEngine: stubEngine{name: "stub"}, answer: 20}
	srv := New(e0, Options{MaxConcurrent: 2})
	p := engine.DefaultParams()

	var wg sync.WaitGroup
	wg.Add(1)
	var inFlightAnswer float64
	go func() {
		defer wg.Done()
		res, _, err := srv.Run(context.Background(), engine.Q4SVD, p)
		if err != nil {
			t.Error(err)
			return
		}
		inFlightAnswer = answerOf(t, res)
	}()
	<-e0.entered // the request is inside the old generation

	srv.Swap(e1, 1) // ingest checkpoint lands mid-flight
	close(e0.release)
	wg.Wait()
	if inFlightAnswer != 10 {
		t.Fatalf("in-flight request answered %v, want the pinned epoch-0 answer 10", inFlightAnswer)
	}

	// The in-flight execution was cached under epoch 0, not epoch 1: a new
	// request (epoch 1) must miss and run on the new generation.
	if res, hit, _ := srv.Run(context.Background(), engine.Q4SVD, p); hit || answerOf(t, res) != 20 {
		t.Fatal("post-swap request served the mid-flight epoch-0 entry")
	}
}

func TestWALEpochSwapRejectsForeignSystem(t *testing.T) {
	srv := New(&epochStub{stubEngine: stubEngine{name: "stub"}}, Options{})
	defer func() {
		if recover() == nil {
			t.Fatal("swap of a different system did not panic")
		}
	}()
	srv.Swap(&epochStub{stubEngine: stubEngine{name: "other"}}, 1)
}

// TestWALEpochRouterProbe: the router's class cache keys carry the backend
// epoch — after a backend swaps, the same fingerprint re-executes and the two
// epochs' answers coexist in the cache under distinct keys.
func TestWALEpochRouterProbe(t *testing.T) {
	noLeak(t)
	e0 := &epochStub{stubEngine: stubEngine{name: "stub"}, answer: 10}
	e1 := &epochStub{stubEngine: stubEngine{name: "stub"}, answer: 20}
	srv := New(e0, Options{MaxConcurrent: 2})
	r, err := NewRouter([]Backend{{Server: srv, Config: cost.Config{System: "stub"}, Class: "dense"}}, RouterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	p := engine.DefaultParams()
	if res, hit, err := r.Run(context.Background(), engine.Q4SVD, p); err != nil || hit || answerOf(t, res) != 10 {
		t.Fatalf("epoch 0: %v %v %v", res, hit, err)
	}
	if _, hit, _ := r.Run(context.Background(), engine.Q4SVD, p); !hit {
		t.Fatal("epoch 0 repeat missed the class cache")
	}
	srv.Swap(e1, 1)
	res, hit, err := r.Run(context.Background(), engine.Q4SVD, p)
	if err != nil || hit || answerOf(t, res) != 20 {
		t.Fatalf("epoch 1 served stale class-cache entry: answer %v hit %v err %v", res.Answer, hit, err)
	}
	if _, hit, _ := r.Run(context.Background(), engine.Q4SVD, p); !hit {
		t.Fatal("epoch 1 repeat missed the class cache")
	}
	if e0.runs.Load() != 1 || e1.runs.Load() != 1 {
		t.Fatalf("runs: %d/%d, want 1/1", e0.runs.Load(), e1.runs.Load())
	}
}
