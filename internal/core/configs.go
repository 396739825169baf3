// Package core is the benchmark itself: the registry of system
// configurations (paper §4.1–§4.2, §5.1), the runner that executes queries
// under the time cutoff and renders failures as the paper's "infinite"
// results, and the suite that regenerates every figure and table of the
// evaluation.
package core

import (
	"fmt"
	"os"

	"github.com/genbase/genbase/internal/arraydb"
	"github.com/genbase/genbase/internal/colstore"
	"github.com/genbase/genbase/internal/engine"
	"github.com/genbase/genbase/internal/mapreduce"
	"github.com/genbase/genbase/internal/multinode"
	"github.com/genbase/genbase/internal/rengine"
	"github.com/genbase/genbase/internal/rowstore"
)

// SystemConfig describes one benchmarkable configuration.
type SystemConfig struct {
	// Name as used in the paper's figure legends.
	Name string
	// SingleNode marks systems in Figures 1–2.
	SingleNode bool
	// MultiNode marks systems in Figures 3–4 (1/2/4 nodes).
	MultiNode bool
	// New builds the single-node engine used in Figures 1-2 and 5 (real
	// measured wall-clock); nodes is ignored. dir is scratch space for
	// disk-backed engines.
	New func(nodes int, dir string) engine.Engine
	// NewCluster builds the multi-node variant used in Figures 3-4 and
	// Table 1 (virtual-time cluster). It is used for ALL node counts of a
	// multi-node sweep — including 1 — so the 1-node baseline runs the same
	// algorithms as the scaled runs, exactly as the paper's multi-node
	// systems did. Nil for single-node-only configurations.
	NewCluster func(nodes int) engine.Engine
}

// Configs returns every configuration in the paper's presentation order.
func Configs() []SystemConfig {
	return []SystemConfig{
		{
			Name: "vanilla-r", SingleNode: true,
			New: func(_ int, _ string) engine.Engine { return rengine.New() },
		},
		{
			Name: "postgres-madlib", SingleNode: true,
			New: func(_ int, dir string) engine.Engine { return rowstore.New(dir, rowstore.ModeMadlib) },
		},
		{
			Name: "postgres-r", SingleNode: true,
			New: func(_ int, dir string) engine.Engine { return rowstore.New(dir, rowstore.ModeR) },
		},
		{
			Name: "colstore-r", SingleNode: true,
			New: func(_ int, _ string) engine.Engine { return colstore.New(colstore.ModeR) },
		},
		{
			Name: "colstore-udf", SingleNode: true, MultiNode: true,
			New:        func(_ int, _ string) engine.Engine { return colstore.New(colstore.ModeUDF) },
			NewCluster: func(nodes int) engine.Engine { return multinode.New(multinode.ColstoreUDF, nodes) },
		},
		{
			Name: "scidb", SingleNode: true, MultiNode: true,
			New:        func(_ int, _ string) engine.Engine { return arraydb.New() },
			NewCluster: func(nodes int) engine.Engine { return multinode.New(multinode.SciDB, nodes) },
		},
		{
			Name: "hadoop", SingleNode: true, MultiNode: true,
			New:        func(_ int, _ string) engine.Engine { return mapreduce.New() },
			NewCluster: func(nodes int) engine.Engine { return multinode.NewHadoop(nodes) },
		},
		{
			Name: "pbdr", MultiNode: true,
			New:        func(nodes int, _ string) engine.Engine { return multinode.New(multinode.PBDR, nodes) },
			NewCluster: func(nodes int) engine.Engine { return multinode.New(multinode.PBDR, nodes) },
		},
		{
			Name: "colstore-pbdr", MultiNode: true,
			New:        func(nodes int, _ string) engine.Engine { return multinode.New(multinode.ColstorePBDR, nodes) },
			NewCluster: func(nodes int) engine.Engine { return multinode.New(multinode.ColstorePBDR, nodes) },
		},
		{
			Name: "scidb-phi",
			New: func(_ int, _ string) engine.Engine {
				e := arraydb.New()
				e.Phi = true
				return e
			},
			NewCluster: func(nodes int) engine.Engine { return multinode.New(multinode.SciDBPhi, nodes) },
		},
	}
}

// ConfigByName looks a configuration up.
func ConfigByName(name string) (SystemConfig, error) {
	for _, c := range Configs() {
		if c.Name == name {
			return c, nil
		}
	}
	return SystemConfig{}, fmt.Errorf("core: unknown system %q", name)
}

// SingleNodeConfigs filters the Figure 1–2 systems.
func SingleNodeConfigs() []SystemConfig {
	var out []SystemConfig
	for _, c := range Configs() {
		if c.SingleNode {
			out = append(out, c)
		}
	}
	return out
}

// MultiNodeConfigs filters the Figure 3–4 systems.
func MultiNodeConfigs() []SystemConfig {
	var out []SystemConfig
	for _, c := range Configs() {
		if c.MultiNode {
			out = append(out, c)
		}
	}
	return out
}

// scratchDir makes a temp dir for disk-backed engines.
func scratchDir() (string, error) {
	return os.MkdirTemp("", "genbase-*")
}
