// Package faults defines deterministic, replayable fault plans for the
// virtual cluster (DESIGN.md §14). A Plan is a pure function of (node, step):
// it names which per-node execution steps crash, which fail transiently, and
// which nodes run slow — no wall clock, no global randomness — so any fault
// drill can be replayed bit for bit from its textual spec, and the injected
// behavior is identical on the serial and concurrent RunNodes paths.
//
// The textual form is a comma-separated list of directives:
//
//	crash:N@K   node N fail-stops at its K-th exec (0-based; K and later
//	            execs fail without running — fail-stop, no recovery)
//	flaky:N@K   node N's K-th exec fails transiently (the cluster retries
//	            it in place with virtual backoff)
//	slow:NxF    node N's measured compute is scaled by factor F — the
//	            straggler model; F at or above the hedge threshold makes
//	            the shard scheduler hedge the node's shards onto replicas
//
// Example: "crash:1@3,flaky:0@2,slow:2x8".
package faults

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"github.com/genbase/genbase/internal/cluster"
	"github.com/genbase/genbase/internal/engine"
)

// A Plan is the standard cluster fault injector.
var _ cluster.Injector = (*Plan)(nil)

// Parse bounds: a plan may be arbitrary but not arbitrarily expensive. The
// fuzzer relies on every parsed plan being safe to execute.
const (
	// MaxNode bounds node indices in a plan (far above any drill's cluster).
	MaxNode = 1 << 10
	// MaxStep bounds crash/flaky step positions.
	MaxStep = 1 << 20
	// MaxSlowFactor bounds the straggler slowdown.
	MaxSlowFactor = 1e6
)

// Plan is a deterministic fault schedule. The zero value is fault-free.
// Plans are built (Crash/Flaky/Slow or Parse) before execution begins and
// are read-only afterwards, so one Plan can inject into many concurrent
// queries — BeforeExec and SlowFactor are pure reads.
type Plan struct {
	crashes map[int]int          // node → first failing step (fail-stop)
	flaky   map[int]map[int]bool // node → steps that fail transiently
	slow    map[int]float64      // node → compute slow factor
}

// New returns an empty (fault-free) plan.
func New() *Plan { return &Plan{} }

// Crash schedules node to fail-stop at its step-th exec. Returns p for
// chaining; an existing crash for the node keeps the earlier step.
func (p *Plan) Crash(node, step int) *Plan {
	if p.crashes == nil {
		p.crashes = make(map[int]int)
	}
	if cur, ok := p.crashes[node]; !ok || step < cur {
		p.crashes[node] = step
	}
	return p
}

// Flaky schedules a transient failure of node's step-th exec. The retry runs
// as the next step, so a single Flaky entry fails exactly one attempt.
func (p *Plan) Flaky(node, step int) *Plan {
	if p.flaky == nil {
		p.flaky = make(map[int]map[int]bool)
	}
	if p.flaky[node] == nil {
		p.flaky[node] = make(map[int]bool)
	}
	p.flaky[node][step] = true
	return p
}

// Slow scales node's measured compute by factor (a straggler). Factors at or
// below 1 are ignored.
func (p *Plan) Slow(node int, factor float64) *Plan {
	if factor <= 1 {
		return p
	}
	if p.slow == nil {
		p.slow = make(map[int]float64)
	}
	p.slow[node] = factor
	return p
}

// Empty reports whether the plan injects nothing.
func (p *Plan) Empty() bool {
	return p == nil || (len(p.crashes) == 0 && len(p.flaky) == 0 && len(p.slow) == 0)
}

// BeforeExec implements cluster.Injector: a pure function of (node, step).
func (p *Plan) BeforeExec(node, step int) error {
	if p == nil {
		return nil
	}
	if at, ok := p.crashes[node]; ok && step >= at {
		return fmt.Errorf("faults: crash scheduled at step %d: %w", at, engine.ErrNodeFailed)
	}
	if p.flaky[node][step] {
		return fmt.Errorf("faults: flaky step: %w", engine.ErrTransient)
	}
	return nil
}

// SlowFactor implements cluster.Injector.
func (p *Plan) SlowFactor(node int) float64 {
	if p == nil {
		return 1
	}
	if f, ok := p.slow[node]; ok {
		return f
	}
	return 1
}

// String renders the canonical textual form: directives sorted by kind then
// node, so Parse(p.String()) reproduces p exactly.
func (p *Plan) String() string {
	if p.Empty() {
		return ""
	}
	var parts []string
	for _, n := range sortedKeys(p.crashes) {
		parts = append(parts, fmt.Sprintf("crash:%d@%d", n, p.crashes[n]))
	}
	for _, n := range sortedKeys(p.flaky) {
		for _, s := range sortedKeys(p.flaky[n]) {
			parts = append(parts, fmt.Sprintf("flaky:%d@%d", n, s))
		}
	}
	for _, n := range sortedKeys(p.slow) {
		parts = append(parts, fmt.Sprintf("slow:%dx%s", n,
			strconv.FormatFloat(p.slow[n], 'g', -1, 64)))
	}
	return strings.Join(parts, ",")
}

func sortedKeys[V any](m map[int]V) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// Parse builds a plan from its textual form (see the package comment). An
// empty string is the fault-free plan.
// Test seam: the root package's fault drills (fault_test.go) and serve's
// TestDistServeConcurrentMatchesSerial.
func Parse(s string) (*Plan, error) {
	p := New()
	s = strings.TrimSpace(s)
	if s == "" {
		return p, nil
	}
	for _, d := range strings.Split(s, ",") {
		d = strings.TrimSpace(d)
		kind, rest, ok := strings.Cut(d, ":")
		if !ok {
			return nil, fmt.Errorf("faults: bad directive %q (want kind:spec)", d)
		}
		switch kind {
		case "crash", "flaky":
			nodeStr, stepStr, ok := strings.Cut(rest, "@")
			if !ok {
				return nil, fmt.Errorf("faults: bad %s spec %q (want N@K)", kind, rest)
			}
			node, err := parseBounded(nodeStr, MaxNode, "node")
			if err != nil {
				return nil, fmt.Errorf("faults: %q: %w", d, err)
			}
			step, err := parseBounded(stepStr, MaxStep, "step")
			if err != nil {
				return nil, fmt.Errorf("faults: %q: %w", d, err)
			}
			if kind == "crash" {
				p.Crash(node, step)
			} else {
				p.Flaky(node, step)
			}
		case "slow":
			nodeStr, facStr, ok := strings.Cut(rest, "x")
			if !ok {
				return nil, fmt.Errorf("faults: bad slow spec %q (want NxF)", rest)
			}
			node, err := parseBounded(nodeStr, MaxNode, "node")
			if err != nil {
				return nil, fmt.Errorf("faults: %q: %w", d, err)
			}
			factor, err := strconv.ParseFloat(facStr, 64)
			if err != nil || !(factor > 1) || factor > MaxSlowFactor {
				return nil, fmt.Errorf("faults: %q: slow factor must be in (1, %g]", d, float64(MaxSlowFactor))
			}
			p.Slow(node, factor)
		default:
			return nil, fmt.Errorf("faults: unknown directive kind %q", kind)
		}
	}
	return p, nil
}

func parseBounded(s string, max int, what string) (int, error) {
	v, err := strconv.Atoi(strings.TrimSpace(s))
	if err != nil || v < 0 || v > max {
		return 0, fmt.Errorf("%s must be an integer in [0, %d]", what, max)
	}
	return v, nil
}

// Seeded derives a small deterministic fault plan for a cluster of the given
// size from a seed: one crash, one straggler, and one flaky step, spread over
// distinct nodes (when the cluster has enough). The same (nodes, seed) always
// yields the same plan — the replayable "random" drill.
// Test seam: the root package's TestFaultGoldenInvariance.
func Seeded(nodes int, seed uint64) *Plan {
	if nodes < 1 {
		nodes = 1
	}
	s := splitmix{seed}
	p := New()
	crashNode := int(s.next() % uint64(nodes))
	p.Crash(crashNode, int(s.next()%4))
	slowNode := int(s.next() % uint64(nodes))
	if nodes > 1 && slowNode == crashNode {
		slowNode = (slowNode + 1) % nodes
	}
	p.Slow(slowNode, float64(4+s.next()%13)) // 4–16×, at or above the hedge threshold
	flakyNode := int(s.next() % uint64(nodes))
	p.Flaky(flakyNode, int(s.next()%4))
	return p
}

// splitmix is SplitMix64 — a tiny seeded generator so Seeded never touches
// global randomness.
type splitmix struct{ state uint64 }

func (s *splitmix) next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
