package genbase

import (
	"context"
	"reflect"
	"testing"

	"github.com/genbase/genbase/internal/core"
	"github.com/genbase/genbase/internal/datagen"
	"github.com/genbase/genbase/internal/engine"
	"github.com/genbase/genbase/internal/multinode"
)

// A query leaves a loaded engine as it found it: every configuration runs
// every supported query twice against one loaded engine, and the two
// answers must be reflect.DeepEqual (exact float64 comparison, no
// tolerance). Whatever an engine keeps between queries (its loaded tables,
// sidecars and shards, pooled scratch) is what the second run reuses.
func TestRepeatedRunAnswersIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("repeated-run sweep is not short")
	}
	ds, err := datagen.Generate(datagen.Config{Size: datagen.Small, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	p := engine.DefaultParams()

	check := func(t *testing.T, eng engine.Engine) {
		for _, q := range engine.AllQueries() {
			if !eng.Supports(q) {
				continue
			}
			first, err := eng.Run(context.Background(), q, p)
			if err != nil {
				t.Fatalf("%s first run: %v", q, err)
			}
			second, err := eng.Run(context.Background(), q, p)
			if err != nil {
				t.Fatalf("%s second run: %v", q, err)
			}
			if !reflect.DeepEqual(first.Answer, second.Answer) {
				t.Errorf("%s: answers diverge between runs on one loaded engine:\n first: %+v\nsecond: %+v",
					q, first.Answer, second.Answer)
			}
		}
	}

	for _, cfg := range core.SingleNodeConfigs() {
		t.Run(cfg.Name, func(t *testing.T) {
			eng := cfg.New(1, t.TempDir())
			defer eng.Close()
			if err := eng.Load(ds); err != nil {
				t.Fatal(err)
			}
			check(t, eng)
		})
	}
	for _, kind := range multinode.AllKinds() {
		for _, nodes := range []int{1, 4} {
			t.Run(kind.String()+"@"+string(rune('0'+nodes))+"n", func(t *testing.T) {
				eng := multinode.New(kind, nodes)
				if err := eng.Load(ds); err != nil {
					t.Fatal(err)
				}
				check(t, eng)
			})
		}
	}
}
