package distlinalg

import (
	"context"
	"errors"
	"fmt"

	"github.com/genbase/genbase/internal/cluster"
	"github.com/genbase/genbase/internal/engine"
)

// ReplicaPlacement places factor copies of each shard onto nodes: copy 0 is
// the ShardOwners primary, copy i sits on the next node ring-wise — the
// successor-replication rule consistent-hashing stores use, so losing any
// single node leaves every shard with a live copy once factor ≥ 2. The
// factor is clamped to [1, nodes] (a node holds at most one copy of a
// shard).
func ReplicaPlacement(shards, nodes, factor int) [][]int {
	if nodes < 1 {
		nodes = 1
	}
	if factor < 1 {
		factor = 1
	}
	if factor > nodes {
		factor = nodes
	}
	owners := ShardOwners(shards, nodes)
	out := make([][]int, shards)
	for s, o := range owners {
		replicas := make([]int, factor)
		for i := 0; i < factor; i++ {
			replicas[i] = (o + i) % nodes
		}
		out[s] = replicas
	}
	return out
}

// RunShards executes fn once per shard on the virtual cluster, surviving
// injected faults (DESIGN.md §14):
//
//   - Each shard is dispatched to the first viable node in its replica list
//     (its primary, fault-free), one Exec per shard so crash schedules and
//     timing resolve at shard granularity.
//   - Straggler hedging: when a node's injected slow factor reaches the
//     hedge threshold, its shards are speculatively re-routed to a healthy
//     replica before dispatch; the winner is committed in shard order like
//     every other partial, and the straggler's cancelled attempt is charged
//     as hedge overhead. The decision reads the fault plan, not measured
//     time, so it is deterministic.
//   - Failover: a shard whose node dies (crash fault, exec timeout) is
//     re-dispatched to its next untried live replica in a follow-up wave,
//     paying the virtual detection delay.
//
// Because fn is a pure function of the shard (replicas hold identical data
// and every attempt either runs to completion or not at all), re-execution
// on any replica reproduces the primary's result bit for bit; recovery can
// change only the virtual clocks, never an answer.
//
// A shard with no untried live replica left fails the call with a typed
// engine.ErrReplicasExhausted wrapping the per-attempt errors. Genuine
// compute errors from fn (anything that is not an injected fault) cancel
// in-flight siblings and abort immediately.
func RunShards(ctx context.Context, c *cluster.Cluster, replicas [][]int, fn func(s int) error) error {
	shards := len(replicas)
	tried := make([]map[int]bool, shards)
	attemptErrs := make([][]error, shards)
	pending := make([]int, shards)
	for s := range pending {
		pending[s] = s
		tried[s] = make(map[int]bool)
	}

	for len(pending) > 0 {
		// Route every pending shard to a node (single-goroutine, between
		// waves, so dead/slow state reads are race-free).
		assign := make([][]int, c.Nodes())
		var exhausted []error
		for _, s := range pending {
			node, hedged, failedOver := routeShard(c, replicas[s], tried[s])
			if node < 0 {
				exhausted = append(exhausted, fmt.Errorf(
					"shard %d: %w", s, errors.Join(append(attemptErrs[s], engine.ErrReplicasExhausted)...)))
				continue
			}
			if hedged {
				c.ChargeHedge(node)
			}
			if failedOver {
				c.ChargeFailoverDetect(node)
			}
			tried[s][node] = true
			assign[node] = append(assign[node], s)
		}
		if len(exhausted) > 0 {
			return errors.Join(exhausted...)
		}

		// One wave: each node runs its shards in ascending order, one Exec
		// per shard. Injected faults are recorded per shard for the next
		// routing round; anything else aborts the wave.
		shardErrs := make([]error, shards)
		waveErr := c.RunNodes(ctx, func(cctx context.Context, node int) error {
			for _, s := range assign[node] {
				err := c.ExecCtx(cctx, node, func() error { return fn(s) })
				if err == nil {
					continue
				}
				if errors.Is(err, engine.ErrNodeFailed) || errors.Is(err, engine.ErrTransient) {
					shardErrs[s] = err
					continue // a dead node fails its remaining shards fast
				}
				return err
			}
			return nil
		})
		if waveErr != nil {
			return waveErr
		}
		pending = pending[:0]
		for s, err := range shardErrs {
			if err != nil {
				attemptErrs[s] = append(attemptErrs[s], err)
				pending = append(pending, s)
			}
		}
	}
	return nil
}

// routeShard picks the execution node for one shard attempt: the first
// candidate in replica order that is untried and not known-dead, skipping
// hedge-threshold stragglers when a healthier replica exists further down.
// hedged reports a straggler skip, failedOver that the shard's primary was
// unavailable (dead or already failed). Returns node -1 when no candidate
// remains.
func routeShard(c *cluster.Cluster, candidates []int, tried map[int]bool) (node int, hedged, failedOver bool) {
	first := -1 // first untried live candidate, the default target
	for _, n := range candidates {
		if tried[n] || c.IsDead(n) {
			continue
		}
		if first < 0 {
			first = n
		}
		if c.NodeSlowFactor(n) < c.HedgeFactor() {
			primaryLost := tried[candidates[0]] || c.IsDead(candidates[0])
			return n, n != first, primaryLost
		}
	}
	if first < 0 {
		return -1, false, false
	}
	// Every remaining replica is a straggler: run on the first anyway.
	return first, false, tried[candidates[0]] || c.IsDead(candidates[0])
}
