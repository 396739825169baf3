// Package parallel is the shared worker-pool layer under every analytics
// kernel. It provides a bounded goroutine pool and contiguous-range
// partitioners that the linalg kernels (and the engines built on them) use to
// spread work over cores.
//
// # Determinism
//
// Every kernel built on this package partitions its OUTPUT, never its
// reduction: each output element is owned by exactly one worker, which
// accumulates it in the same order the serial kernel would. No worker-count-
// dependent reduction ever happens, so results are bitwise identical at any
// worker count — including 1 — and identical to the historical serial
// kernels. The split points therefore cannot affect answers, only load
// balance; TestParallelKernelsBitwiseDeterministic in internal/linalg
// enforces the guarantee.
//
// # The knob
//
// The effective worker count resolves in priority order:
//
//  1. an explicit per-call count (> 0), as threaded through an engine's
//     Workers field;
//  2. the GENBASE_PARALLEL environment variable, which pins every engine
//     of the process;
//  3. runtime.NumCPU().
package parallel

import (
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
)

// EnvVar is the environment variable consulted for the default worker count.
const EnvVar = "GENBASE_PARALLEL"

// Default returns the process-wide default worker count.
func Default() int {
	if s := os.Getenv(EnvVar); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			return v
		}
	}
	return runtime.NumCPU()
}

// Resolve maps a per-call worker count to an effective one: positive counts
// pass through, anything else resolves to Default().
func Resolve(workers int) int {
	if workers > 0 {
		return workers
	}
	return Default()
}

// Range is a contiguous half-open index interval [Lo, Hi).
type Range struct{ Lo, Hi int }

// Len returns the number of indices in the range.
func (r Range) Len() int { return r.Hi - r.Lo }

// Split partitions [0, n) into at most k contiguous near-equal ranges
// (fewer when n < k; never an empty range). Split points depend only on n
// and k.
func Split(n, k int) []Range {
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	if n <= 0 {
		return nil
	}
	out := make([]Range, k)
	per, rem := n/k, n%k
	pos := 0
	for i := range out {
		next := pos + per
		if i < rem {
			next++
		}
		out[i] = Range{pos, next}
		pos = next
	}
	return out
}

// SplitWeighted partitions [0, n) into at most k contiguous ranges of
// near-equal total weight, for kernels whose per-index cost is uneven (the
// upper-triangle Gram rows). weight(i) must be non-negative.
func SplitWeighted(n, k int, weight func(i int) float64) []Range {
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	if n <= 0 {
		return nil
	}
	total := 0.0
	for i := 0; i < n; i++ {
		total += weight(i)
	}
	if total <= 0 {
		return Split(n, k)
	}
	out := make([]Range, 0, k)
	target := total / float64(k)
	acc := 0.0
	lo := 0
	for i := 0; i < n; i++ {
		acc += weight(i)
		// Cut when this shard reached its share, keeping enough indices for
		// the remaining shards.
		if acc >= target*float64(len(out)+1) && n-i-1 >= k-len(out)-1 && len(out) < k-1 {
			out = append(out, Range{lo, i + 1})
			lo = i + 1
		}
	}
	out = append(out, Range{lo, n})
	return out
}

// For runs fn(i) for every i in [0, n) across at most `workers` goroutines
// (the bounded pool), pulling indices from a shared counter. workers <= 0
// resolves to the default knob. With one effective worker it runs inline with
// no goroutines. fn calls for distinct i must be independent.
func For(workers, n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	workers = Resolve(workers)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// ForSplit partitions [0, n) into one contiguous range per worker and runs
// fn(lo, hi) on each concurrently. With one effective worker it calls
// fn(0, n) inline — no range slice, no closure, no allocation, so the
// serial path of every kernel stays allocation-free. The multi-worker path
// computes the same split points as Split arithmetically (no range slice, no
// shared counter) and runs the final range on the calling goroutine, so a
// w-way fan-out costs w-1 goroutines and ~w small allocations — this is the
// hot path under every per-iteration kernel (the Lanczos mat-vecs).
func ForSplit(workers, n int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	w := Resolve(workers)
	if w <= 1 || n == 1 {
		fn(0, n)
		return
	}
	if w > n {
		w = n
	}
	var wg sync.WaitGroup
	wg.Add(w - 1)
	per, rem := n/w, n%w
	lo := 0
	for i := 0; i < w; i++ {
		hi := lo + per
		if i < rem {
			hi++
		}
		if i == w-1 {
			fn(lo, hi)
		} else {
			go func(lo, hi int) {
				defer wg.Done()
				fn(lo, hi)
			}(lo, hi)
		}
		lo = hi
	}
	wg.Wait()
}

// ForSplitWeighted is ForSplit with weighted split points.
func ForSplitWeighted(workers, n int, weight func(i int) float64, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	w := Resolve(workers)
	if w <= 1 || n == 1 {
		fn(0, n)
		return
	}
	ForRanges(workers, SplitWeighted(n, w, weight), fn)
}

// ForRanges runs fn over each range, one goroutine per range (inline when
// there is only one).
func ForRanges(workers int, ranges []Range, fn func(lo, hi int)) {
	if len(ranges) == 1 {
		fn(ranges[0].Lo, ranges[0].Hi)
		return
	}
	For(workers, len(ranges), func(i int) { fn(ranges[i].Lo, ranges[i].Hi) })
}
