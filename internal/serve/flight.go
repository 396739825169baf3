package serve

import (
	"context"
	"sync"
	"sync/atomic"

	"github.com/genbase/genbase/internal/engine"
)

// flights coalesces cold-cache twins (single-flight): the first caller of a
// key becomes its leader and executes; concurrent callers of the same key
// wait on the leader's channel and re-check the cache — a stampede of
// identical queries executes once instead of once per client. The Router
// coalesces across its whole fleet: the key's System field carries the
// answer-equivalence class, so twins coalesce no matter which backend each
// would have picked.
type flights struct {
	mu      sync.Mutex
	pending map[Key]chan struct{}

	coalesced atomic.Int64 // waiters answered by a twin's execution
}

// run executes fn single-flight per key. The leader runs fn — which is
// responsible for publishing its result to the cache before run returns
// (the Router may cache under a different key than the flight key when it
// re-routes or its gate pins a newer epoch, so publication can't live here) — and wakes the waiters.
// Waiters re-check the cache with peek (their miss was already recorded)
// and either return the leader's published result or contend to lead the
// retry when the leader failed or published elsewhere.
func (f *flights) run(ctx context.Context, c *cache, key Key, fn func() (*engine.Result, error)) (*engine.Result, bool, error) {
	for first := true; ; first = false {
		// Re-check the cache on every pass but the first (whose miss the
		// caller's get just recorded): a woken waiter's twin, or a retrier
		// that raced ahead after a failed leader, may have cached the answer
		// between the last wait and this contention round.
		if !first {
			if res, ok := c.peek(key); ok {
				f.coalesced.Add(1)
				return res, true, nil
			}
		}
		f.mu.Lock()
		if f.pending == nil {
			f.pending = make(map[Key]chan struct{})
		}
		ch, exists := f.pending[key]
		if !exists {
			// Leader: execute once and publish for the waiters.
			ch = make(chan struct{})
			f.pending[key] = ch
			f.mu.Unlock()
			res, err := fn()
			f.mu.Lock()
			delete(f.pending, key)
			f.mu.Unlock()
			close(ch)
			return res, false, err
		}
		f.mu.Unlock()
		// Waiter: a twin of this exact query is executing; wait for it
		// instead of burning an admission slot on a duplicate.
		select {
		case <-ch:
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
	}
}
