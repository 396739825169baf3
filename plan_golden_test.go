package genbase

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"github.com/genbase/genbase/internal/core"
	"github.com/genbase/genbase/internal/datagen"
	"github.com/genbase/genbase/internal/engine"
	"github.com/genbase/genbase/internal/multinode"
)

// -update regenerates testdata/golden_answers.json from the current code.
// The committed file was generated from the pre-refactor engines (the
// hand-written per-engine query methods), so the golden test proves the
// plan-compiled path reproduces the historical answers bit for bit.
var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_answers.json")

const goldenPath = "testdata/golden_answers.json"

// goldenAnswerHash canonicalizes an answer through its typed JSON encoding
// (Go's float64 encoding is shortest-round-trip, i.e. bitwise faithful) and
// hashes it, so the golden file stays small while still asserting exact
// answer identity.
func goldenAnswerHash(t *testing.T, answer any) string {
	t.Helper()
	b, err := json.Marshal(answer)
	if err != nil {
		t.Fatalf("marshal answer: %v", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func goldenKey(system string, q engine.QueryID) string {
	return fmt.Sprintf("%s/%s", system, q)
}

func goldenClusterKey(system string, nodes int, q engine.QueryID) string {
	return fmt.Sprintf("%s@%dn/%s", system, nodes, q)
}

// TestPlanPathMatchesPreRefactorGoldens runs the five paper queries on every
// single-node configuration and asserts the answers are bitwise identical to
// the answers the pre-refactor (per-engine hardcoded query methods) code
// produced on the same dataset. This is the acceptance gate for the logical
// query-plan refactor: compiling (QueryID, Params) into the shared operator
// IR and executing it through each engine's physical operators must not
// change a single bit of any answer.
func TestPlanPathMatchesPreRefactorGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("golden sweep is not short")
	}
	ds, err := datagen.Generate(datagen.Config{Size: datagen.Small, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	p := engine.DefaultParams()

	got := make(map[string]string)
	for _, cfg := range core.SingleNodeConfigs() {
		eng := cfg.New(1, t.TempDir())
		defer eng.Close()
		if err := eng.Load(ds); err != nil {
			t.Fatalf("%s load: %v", cfg.Name, err)
		}
		for _, q := range engine.AllQueries() {
			if !eng.Supports(q) {
				continue
			}
			res, err := eng.Run(context.Background(), q, p)
			if err != nil {
				t.Fatalf("%s %s: %v", cfg.Name, q, err)
			}
			got[goldenKey(cfg.Name, q)] = goldenAnswerHash(t, res.Answer)
		}
	}

	// The five multi-node configurations, at one and four nodes. The
	// committed hashes were generated from the pre-refactor hardcoded
	// multinode.Run at 4 nodes; because the distributed plan layer fixed the
	// numeric shard partition at distlinalg.DefaultNumericShards (= the
	// paper's largest cluster), the 1-node entries pin the same answers —
	// answers are invariant to node count by construction, and at 4 nodes
	// they coincide bit for bit with the pre-refactor per-node partitioning
	// (DESIGN.md §13).
	for _, kind := range multinode.AllKinds() {
		for _, nodes := range []int{1, 4} {
			eng := multinode.New(kind, nodes)
			if err := eng.Load(ds); err != nil {
				t.Fatalf("%s/%d load: %v", kind, nodes, err)
			}
			for _, q := range engine.AllQueries() {
				if !eng.Supports(q) {
					continue
				}
				res, err := eng.Run(context.Background(), q, p)
				if err != nil {
					t.Fatalf("%s@%dn %s: %v", kind, nodes, q, err)
				}
				got[goldenClusterKey(kind.String(), nodes, q)] = goldenAnswerHash(t, res.Answer)
			}
		}
	}

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden answers to %s", len(got), goldenPath)
		return
	}

	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read goldens (run with -update to regenerate): %v", err)
	}
	want := make(map[string]string)
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}

	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if got[k] == "" {
			t.Errorf("%s: no answer produced (query no longer supported?)", k)
			continue
		}
		if got[k] != want[k] {
			t.Errorf("%s: answer diverges from pre-refactor golden (hash %s != %s)", k, got[k], want[k])
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			t.Logf("note: %s has no pre-refactor golden (new scenario)", k)
		}
	}
}
