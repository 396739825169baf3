package multinode

import (
	"context"
	"fmt"
	"time"

	"github.com/genbase/genbase/internal/cluster"
	"github.com/genbase/genbase/internal/datagen"
	"github.com/genbase/genbase/internal/engine"
	"github.com/genbase/genbase/internal/linalg"
	"github.com/genbase/genbase/internal/mapreduce"
	"github.com/genbase/genbase/internal/plan"
)

// Hadoop wraps the MapReduce engine with the virtual cluster's task
// scheduler: map/reduce waves are spread over simulated nodes and shuffle
// traffic is charged to the network. Reported timings are virtual makespans,
// split by the query StopWatch at the plan's phase boundaries (the Hive jobs
// run as data management, the Mahout jobs as analytics). Like Engine, every
// Run executes on its own virtual cluster, so concurrent queries are safe.
type Hadoop struct {
	nodes  int
	inner  *mapreduce.Engine // loaded text tables; read-only during Runs
	loaded bool

	// now times each Run's MapReduce tasks (cluster.Config.Now; nil = wall
	// clock). Package tests install a stepping clock to make virtual time
	// exact.
	now func() time.Time
}

// NewHadoop creates a multi-node Hadoop configuration.
func NewHadoop(nodes int) *Hadoop {
	inner := mapreduce.New()
	inner.Splits = nodes * 2 // two map slots per node, Hadoop's default shape
	if inner.Splits < mapreduce.DefaultSplits {
		inner.Splits = mapreduce.DefaultSplits
	}
	return &Hadoop{nodes: nodes, inner: inner}
}

// Name implements engine.Engine.
func (h *Hadoop) Name() string { return "hadoop" }

// Supports implements engine.Engine.
func (h *Hadoop) Supports(q engine.QueryID) bool { return h.inner.Supports(q) }

// Load implements engine.Engine.
func (h *Hadoop) Load(ds *datagen.Dataset) error {
	if err := h.inner.Load(ds); err != nil {
		return err
	}
	h.loaded = true
	return nil
}

// Close implements engine.Engine.
func (h *Hadoop) Close() error {
	h.loaded = false
	return h.inner.Close()
}

// Run implements engine.Engine: execute the query's MR jobs on a fresh
// virtual cluster, through a per-query copy of the loaded engine whose
// scheduler places them there.
func (h *Hadoop) Run(ctx context.Context, q engine.QueryID, p engine.Params) (*engine.Result, error) {
	if !h.loaded {
		return nil, fmt.Errorf("multinode: not loaded")
	}
	pl, err := plan.Compile(q, p)
	if err != nil {
		return nil, err
	}
	cfg := cluster.DefaultConfig(h.nodes)
	cfg.Now = h.now
	c := cluster.New(cfg)
	mr := *h.inner // shares the loaded text tables
	mr.Sched = &cluster.MRScheduler{C: c}
	return plan.Execute[*linalg.Matrix](ctx, hadoopExec{&mr, c}, pl)
}

// hadoopExec is one query's MapReduce engine plus the plan.Timekeeper whose
// clock is its virtual cluster's makespan.
type hadoopExec struct {
	*mapreduce.Engine
	c *cluster.Cluster
}

// Now implements plan.Timekeeper: the query StopWatch reads the makespan.
func (x hadoopExec) Now() time.Time { return makespanTime(x.c) }

// ExecLocal implements plan.Timekeeper: the shared covariance summary runs
// in the Hadoop driver, outside any MR job, so it charges no node.
func (x hadoopExec) ExecLocal(fn func() error) error { return fn() }
