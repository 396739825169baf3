package engine

import "errors"

// Fault taxonomy for the distributed execution path (DESIGN.md §14). Before
// this existed, every failure on the cluster path surfaced as an ad-hoc
// fmt.Errorf string, so callers could not tell a dead node from a malformed
// request. The serving tier keys distinct admission outcomes off these with
// errors.Is, and the fault-injection tests assert them by identity.
var (
	// ErrNodeFailed marks work addressed to a virtual node that has crashed
	// (fail-stop): the node executes nothing from its crash step onward. The
	// shard scheduler treats it as the trigger for replica failover.
	ErrNodeFailed = errors.New("engine: node failed")

	// ErrTransient marks a single failed execution attempt on an otherwise
	// healthy node (the lost-RPC / task-retry class of fault). The cluster
	// retries it in place with bounded virtual backoff; it escapes to callers
	// only when the retry budget is exhausted.
	ErrTransient = errors.New("engine: transient execution fault")

	// ErrReplicasExhausted is the typed partial-failure error the plan
	// executor surfaces when a shard's work cannot run anywhere: every node
	// holding a replica of the shard is dead. It wraps the per-replica
	// failures via errors.Join.
	ErrReplicasExhausted = errors.New("engine: all shard replicas exhausted")

	// ErrDeadlineExceeded marks a request that ran past its caller's
	// deadline. The serving tier maps context.DeadlineExceeded from an
	// expired request context onto it so clients see one typed outcome.
	ErrDeadlineExceeded = errors.New("engine: request deadline exceeded")

	// ErrOverload marks a request shed at admission: the circuit breaker of
	// every candidate server was open. Shedding is the serving tier
	// degrading gracefully instead of collapsing; clients should back off and
	// retry.
	ErrOverload = errors.New("engine: server overloaded, request shed")
)
