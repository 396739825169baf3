package core

import (
	"fmt"

	"github.com/genbase/genbase/internal/cost"
	"github.com/genbase/genbase/internal/engine"
	"github.com/genbase/genbase/internal/multinode"
)

// Answer-equivalence classes (DESIGN.md §16). Within a class every
// configuration produces bit-identical answers for every query it supports —
// pinned by testdata/golden_answers.json and route_test.go — so the fleet
// result cache shares entries exactly within a class and never across.
const (
	// ClassDense: the single-node engines and the virtual colstore-udf
	// cluster. All execute the dense in-memory operator algebra in the same
	// association order (the cluster variant re-merges to it bit for bit).
	ClassDense = "dense"
	// ClassDist: the distributed row-block algebra (pbdr, colstore-pbdr,
	// scidb, scidb-phi clusters). Shard-tree reduction associates float
	// additions differently from the dense engines — same math, different
	// bits.
	ClassDist = "dist"
	// ClassMR: the MapReduce pipeline (hadoop, single and cluster), whose
	// combiner tree is a third association order.
	ClassMR = "mr"
)

// FleetMember is one backend of the serve fleet: a (system, nodes)
// configuration with its cost-model identity, answer class, and builder.
type FleetMember struct {
	// Key is the configuration key ("scidb", "scidb@2n") — identical to
	// Config.Key() and to the keys of the committed cost coefficients.
	Key string
	// Config is the cost-model identity the router estimates with.
	Config cost.Config
	// Class is the answer-equivalence class (ClassDense/ClassDist/ClassMR).
	Class string
	// Serial is always false (every backend serves concurrent Runs); kept for readers.
	Serial bool
	// New builds the engine; dir is scratch space for disk-backed engines.
	New func(dir string) engine.Engine
}

// FleetConfigs returns the full heterogeneous fleet the serve router fronts:
// all eight single-node configurations plus the six virtual-cluster variants
// at clusterNodes (min 2 — a 1-node "cluster" duplicates a configuration key
// the single-node engine already holds). This is the paper's whole
// evaluation matrix loaded side by side: routing across it is choosing a
// winner per query, which is the paper's conclusion made operational.
func FleetConfigs(clusterNodes int) ([]FleetMember, error) {
	if clusterNodes < 2 {
		return nil, fmt.Errorf("core: fleet cluster variants need at least 2 nodes, got %d", clusterNodes)
	}
	single := func(name, class string) FleetMember {
		cfg, err := ConfigByName(name)
		if err != nil {
			panic(err) // registry names are static; a miss is a programming error
		}
		return FleetMember{
			Key:    name,
			Config: cost.Config{System: name},
			Class:  class,
			New:    func(dir string) engine.Engine { return cfg.New(1, dir) },
		}
	}
	clustered := func(kind multinode.Kind, class string) FleetMember {
		name := kind.String()
		return FleetMember{
			Key:    fmt.Sprintf("%s@%dn", name, clusterNodes),
			Config: cost.Config{System: name, Nodes: clusterNodes},
			Class:  class,
			New:    func(string) engine.Engine { return multinode.New(kind, clusterNodes) },
		}
	}
	fleet := []FleetMember{
		single("vanilla-r", ClassDense),
		single("postgres-madlib", ClassDense),
		single("postgres-r", ClassDense),
		single("colstore-r", ClassDense),
		single("colstore-udf", ClassDense),
		single("scidb", ClassDense),
		single("scidb-phi", ClassDense),
		single("hadoop", ClassMR),
		clustered(multinode.ColstoreUDF, ClassDense),
		clustered(multinode.PBDR, ClassDist),
		clustered(multinode.ColstorePBDR, ClassDist),
		clustered(multinode.SciDB, ClassDist),
		clustered(multinode.SciDBPhi, ClassDist),
		{
			Key:    fmt.Sprintf("hadoop@%dn", clusterNodes),
			Config: cost.Config{System: "hadoop", Nodes: clusterNodes},
			Class:  ClassMR,
			New:    func(string) engine.Engine { return multinode.NewHadoop(clusterNodes) },
		},
	}
	return fleet, nil
}
