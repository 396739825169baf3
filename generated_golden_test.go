package genbase

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"github.com/genbase/genbase/internal/core"
	"github.com/genbase/genbase/internal/datagen"
	"github.com/genbase/genbase/internal/engine"
	"github.com/genbase/genbase/internal/linalg"
	"github.com/genbase/genbase/internal/plan"
)

// generatedInput is one (dataset, parameters) point of the generated-input
// answer table.
type generatedInput struct {
	name   string
	data   datagen.Config
	params engine.Params
}

// selectiveParams mirrors the repo benchmark's selective-medium parameters
// (benchmark/workloads.go): every predicate narrowed until the kernels see a
// few dozen columns.
func selectiveParams() engine.Params {
	p := engine.DefaultParams()
	p.FunctionThreshold = 25
	p.MaxAge = 22
	p.SampleFrac = 0.01
	p.MaxBiclusters = 1
	p.SVDK = 3
	return p
}

// generatedInputs are the two points beyond the committed goldens' small,
// seed 1, DefaultParams: the benchmark's selective parameters on that
// dataset, and DefaultParams on a second dataset (1300 patients × 325
// genes) whose patients and microarray tables both end in a partial
// 1000-row sidecar segment.
var generatedInputs = []generatedInput{
	{"selective", datagen.Config{Size: datagen.Small, Seed: 1}, selectiveParams()},
	{"default-s2", datagen.Config{Size: datagen.Small, Scale: 1.3, PatientScale: 4, Seed: 2}, engine.DefaultParams()},
}

// generatedGolden holds answer hashes (goldenAnswerHash) for every
// single-node configuration × supported scenario on each generated input,
// keyed input/system/query. The select rows pin what SelectIDs returns for
// an empty predicate list, which Compile never emits. The hashes were
// recorded with every storage engine's earlier alternative data paths (the
// copying pivots and scans, decode-then-filter selection) agreeing bit for
// bit with the paths the engines run today; the hadoop selective rows were
// first recorded from the MapReduce runtime the arena/merge runtime
// replaced (internal/mapreduce/framework_ref_test.go).
var generatedGolden = map[string]string{
	"default-s2/colstore-r/biclustering":           "5c355f0228324d3022e3c516a1361d9d486814afee07e8c8ee1770ab5ad80927",
	"default-s2/colstore-r/cohort-regression":      "e3db5e0e3dd524c143d097bb1904a622784cd05e87d01e26684cbc2bafbaeb40",
	"default-s2/colstore-r/covariance":             "c4efdc7a15f5fe377d8465ffe422e629e55e01b6f78ba67ec2b15132708a7199",
	"default-s2/colstore-r/regression":             "d2a46146e7ea830ce4b0e5253721e1c2188960f18b42ccf3570c4211536defae",
	"default-s2/colstore-r/select-genes()":         "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b",
	"default-s2/colstore-r/select-patients()":      "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b",
	"default-s2/colstore-r/statistics":             "18ab8ffbcf4253096689bf9d71b48b9810e169c66cc3e21c5d49bc16a26a6a2b",
	"default-s2/colstore-r/svd":                    "85c2682ffc4ef3759ecaa229e97856b6f824c48abfc4dd366ba13770d10faae8",
	"default-s2/colstore-udf/biclustering":         "5c355f0228324d3022e3c516a1361d9d486814afee07e8c8ee1770ab5ad80927",
	"default-s2/colstore-udf/cohort-regression":    "e3db5e0e3dd524c143d097bb1904a622784cd05e87d01e26684cbc2bafbaeb40",
	"default-s2/colstore-udf/covariance":           "c4efdc7a15f5fe377d8465ffe422e629e55e01b6f78ba67ec2b15132708a7199",
	"default-s2/colstore-udf/regression":           "d2a46146e7ea830ce4b0e5253721e1c2188960f18b42ccf3570c4211536defae",
	"default-s2/colstore-udf/select-genes()":       "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b",
	"default-s2/colstore-udf/select-patients()":    "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b",
	"default-s2/colstore-udf/statistics":           "18ab8ffbcf4253096689bf9d71b48b9810e169c66cc3e21c5d49bc16a26a6a2b",
	"default-s2/colstore-udf/svd":                  "85c2682ffc4ef3759ecaa229e97856b6f824c48abfc4dd366ba13770d10faae8",
	"default-s2/hadoop/cohort-regression":          "d715a54386aed4088f2d5b7e1ea440becbe69d2de5d8b59a663b871329e36b7f",
	"default-s2/hadoop/covariance":                 "91807fd39084390d1b96ccaf0757925720ad663206860de9ca4aaac8af88b485",
	"default-s2/hadoop/regression":                 "1b600ba890e91acf83782f9d94aaffac358a5a39176bc0a255fe9953bdda83f8",
	"default-s2/hadoop/select-genes()":             "9fce1304aa3def45412f7466efeae25421d64ec1971c76d34d0e66aaf337364c",
	"default-s2/hadoop/select-patients()":          "d61281218e41a94bfd8f4c6689cd1130b25f8f6fb4d5993b175f52822a377ca8",
	"default-s2/hadoop/statistics":                 "18ab8ffbcf4253096689bf9d71b48b9810e169c66cc3e21c5d49bc16a26a6a2b",
	"default-s2/hadoop/svd":                        "51d6ca119917188fb04bab6eec28792c93dc8b1c78639c27789e78c111377bc7",
	"default-s2/postgres-madlib/cohort-regression": "e3db5e0e3dd524c143d097bb1904a622784cd05e87d01e26684cbc2bafbaeb40",
	"default-s2/postgres-madlib/covariance":        "c4efdc7a15f5fe377d8465ffe422e629e55e01b6f78ba67ec2b15132708a7199",
	"default-s2/postgres-madlib/regression":        "d2a46146e7ea830ce4b0e5253721e1c2188960f18b42ccf3570c4211536defae",
	"default-s2/postgres-madlib/select-genes()":    "9fce1304aa3def45412f7466efeae25421d64ec1971c76d34d0e66aaf337364c",
	"default-s2/postgres-madlib/select-patients()": "d61281218e41a94bfd8f4c6689cd1130b25f8f6fb4d5993b175f52822a377ca8",
	"default-s2/postgres-madlib/statistics":        "18ab8ffbcf4253096689bf9d71b48b9810e169c66cc3e21c5d49bc16a26a6a2b",
	"default-s2/postgres-madlib/svd":               "85c2682ffc4ef3759ecaa229e97856b6f824c48abfc4dd366ba13770d10faae8",
	"default-s2/postgres-r/biclustering":           "5c355f0228324d3022e3c516a1361d9d486814afee07e8c8ee1770ab5ad80927",
	"default-s2/postgres-r/cohort-regression":      "e3db5e0e3dd524c143d097bb1904a622784cd05e87d01e26684cbc2bafbaeb40",
	"default-s2/postgres-r/covariance":             "c4efdc7a15f5fe377d8465ffe422e629e55e01b6f78ba67ec2b15132708a7199",
	"default-s2/postgres-r/regression":             "d2a46146e7ea830ce4b0e5253721e1c2188960f18b42ccf3570c4211536defae",
	"default-s2/postgres-r/select-genes()":         "9fce1304aa3def45412f7466efeae25421d64ec1971c76d34d0e66aaf337364c",
	"default-s2/postgres-r/select-patients()":      "d61281218e41a94bfd8f4c6689cd1130b25f8f6fb4d5993b175f52822a377ca8",
	"default-s2/postgres-r/statistics":             "18ab8ffbcf4253096689bf9d71b48b9810e169c66cc3e21c5d49bc16a26a6a2b",
	"default-s2/postgres-r/svd":                    "85c2682ffc4ef3759ecaa229e97856b6f824c48abfc4dd366ba13770d10faae8",
	"default-s2/scidb/biclustering":                "5c355f0228324d3022e3c516a1361d9d486814afee07e8c8ee1770ab5ad80927",
	"default-s2/scidb/cohort-regression":           "e3db5e0e3dd524c143d097bb1904a622784cd05e87d01e26684cbc2bafbaeb40",
	"default-s2/scidb/covariance":                  "c4efdc7a15f5fe377d8465ffe422e629e55e01b6f78ba67ec2b15132708a7199",
	"default-s2/scidb/regression":                  "d2a46146e7ea830ce4b0e5253721e1c2188960f18b42ccf3570c4211536defae",
	"default-s2/scidb/select-genes()":              "9fce1304aa3def45412f7466efeae25421d64ec1971c76d34d0e66aaf337364c",
	"default-s2/scidb/select-patients()":           "d61281218e41a94bfd8f4c6689cd1130b25f8f6fb4d5993b175f52822a377ca8",
	"default-s2/scidb/statistics":                  "18ab8ffbcf4253096689bf9d71b48b9810e169c66cc3e21c5d49bc16a26a6a2b",
	"default-s2/scidb/svd":                         "85c2682ffc4ef3759ecaa229e97856b6f824c48abfc4dd366ba13770d10faae8",
	"default-s2/vanilla-r/biclustering":            "5c355f0228324d3022e3c516a1361d9d486814afee07e8c8ee1770ab5ad80927",
	"default-s2/vanilla-r/cohort-regression":       "e3db5e0e3dd524c143d097bb1904a622784cd05e87d01e26684cbc2bafbaeb40",
	"default-s2/vanilla-r/covariance":              "c4efdc7a15f5fe377d8465ffe422e629e55e01b6f78ba67ec2b15132708a7199",
	"default-s2/vanilla-r/regression":              "d2a46146e7ea830ce4b0e5253721e1c2188960f18b42ccf3570c4211536defae",
	"default-s2/vanilla-r/select-genes()":          "9fce1304aa3def45412f7466efeae25421d64ec1971c76d34d0e66aaf337364c",
	"default-s2/vanilla-r/select-patients()":       "d61281218e41a94bfd8f4c6689cd1130b25f8f6fb4d5993b175f52822a377ca8",
	"default-s2/vanilla-r/statistics":              "18ab8ffbcf4253096689bf9d71b48b9810e169c66cc3e21c5d49bc16a26a6a2b",
	"default-s2/vanilla-r/svd":                     "85c2682ffc4ef3759ecaa229e97856b6f824c48abfc4dd366ba13770d10faae8",
	"selective/colstore-r/biclustering":            "02cef13203f3bee6239c0415d6da7e9857e285368b74ef5f5aa38a2123fe631a",
	"selective/colstore-r/cohort-regression":       "d635adbb909615d4ea3a5855c42fc90784c0404b6e6cdb11199b2669e5cc3e19",
	"selective/colstore-r/covariance":              "95ac1ea6d045698b9324737cb73fcca745895c8cc06d4655775cd9e02a2d5a19",
	"selective/colstore-r/regression":              "ee63b63aae5852295d61f707b3fd75871ab07f1593897429722cc17842010700",
	"selective/colstore-r/select-genes()":          "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b",
	"selective/colstore-r/select-patients()":       "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b",
	"selective/colstore-r/statistics":              "af5c9a16e7acc806536a2f9836429e67b8b7bf79dcb72d05eba6c3bfbff489a5",
	"selective/colstore-r/svd":                     "60ee11cf83541b8a1cc96017cf9b69f3a69169bce8ca5c685491a6f7fdb7d1f6",
	"selective/colstore-udf/biclustering":          "02cef13203f3bee6239c0415d6da7e9857e285368b74ef5f5aa38a2123fe631a",
	"selective/colstore-udf/cohort-regression":     "d635adbb909615d4ea3a5855c42fc90784c0404b6e6cdb11199b2669e5cc3e19",
	"selective/colstore-udf/covariance":            "95ac1ea6d045698b9324737cb73fcca745895c8cc06d4655775cd9e02a2d5a19",
	"selective/colstore-udf/regression":            "ee63b63aae5852295d61f707b3fd75871ab07f1593897429722cc17842010700",
	"selective/colstore-udf/select-genes()":        "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b",
	"selective/colstore-udf/select-patients()":     "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b",
	"selective/colstore-udf/statistics":            "af5c9a16e7acc806536a2f9836429e67b8b7bf79dcb72d05eba6c3bfbff489a5",
	"selective/colstore-udf/svd":                   "60ee11cf83541b8a1cc96017cf9b69f3a69169bce8ca5c685491a6f7fdb7d1f6",
	"selective/hadoop/cohort-regression":           "0d010460df5bee470bac3a0c8a20d5199e1da7c8c516d26eb51874648b104696",
	"selective/hadoop/covariance":                  "e6d475c314a4372cd93ce4969da0f585e84c7c73d784197aca5b9b91f0201094",
	"selective/hadoop/regression":                  "7e954f07a81644ebc83e92e45dbcef249cef088545e00ef53a2c85c5adc47d63",
	"selective/hadoop/select-genes()":              "9123a14cd1378a480c9e62e21cc39355ef2a8638384974dc699c74984647e7a9",
	"selective/hadoop/select-patients()":           "9123a14cd1378a480c9e62e21cc39355ef2a8638384974dc699c74984647e7a9",
	"selective/hadoop/statistics":                  "af5c9a16e7acc806536a2f9836429e67b8b7bf79dcb72d05eba6c3bfbff489a5",
	"selective/hadoop/svd":                         "80429efb12932b88aaee94a82d4a4724806bc508998e34259cba87e672e7d356",
	"selective/postgres-madlib/cohort-regression":  "d635adbb909615d4ea3a5855c42fc90784c0404b6e6cdb11199b2669e5cc3e19",
	"selective/postgres-madlib/covariance":         "95ac1ea6d045698b9324737cb73fcca745895c8cc06d4655775cd9e02a2d5a19",
	"selective/postgres-madlib/regression":         "ee63b63aae5852295d61f707b3fd75871ab07f1593897429722cc17842010700",
	"selective/postgres-madlib/select-genes()":     "9123a14cd1378a480c9e62e21cc39355ef2a8638384974dc699c74984647e7a9",
	"selective/postgres-madlib/select-patients()":  "9123a14cd1378a480c9e62e21cc39355ef2a8638384974dc699c74984647e7a9",
	"selective/postgres-madlib/statistics":         "af5c9a16e7acc806536a2f9836429e67b8b7bf79dcb72d05eba6c3bfbff489a5",
	"selective/postgres-madlib/svd":                "60ee11cf83541b8a1cc96017cf9b69f3a69169bce8ca5c685491a6f7fdb7d1f6",
	"selective/postgres-r/biclustering":            "02cef13203f3bee6239c0415d6da7e9857e285368b74ef5f5aa38a2123fe631a",
	"selective/postgres-r/cohort-regression":       "d635adbb909615d4ea3a5855c42fc90784c0404b6e6cdb11199b2669e5cc3e19",
	"selective/postgres-r/covariance":              "95ac1ea6d045698b9324737cb73fcca745895c8cc06d4655775cd9e02a2d5a19",
	"selective/postgres-r/regression":              "ee63b63aae5852295d61f707b3fd75871ab07f1593897429722cc17842010700",
	"selective/postgres-r/select-genes()":          "9123a14cd1378a480c9e62e21cc39355ef2a8638384974dc699c74984647e7a9",
	"selective/postgres-r/select-patients()":       "9123a14cd1378a480c9e62e21cc39355ef2a8638384974dc699c74984647e7a9",
	"selective/postgres-r/statistics":              "af5c9a16e7acc806536a2f9836429e67b8b7bf79dcb72d05eba6c3bfbff489a5",
	"selective/postgres-r/svd":                     "60ee11cf83541b8a1cc96017cf9b69f3a69169bce8ca5c685491a6f7fdb7d1f6",
	"selective/scidb/biclustering":                 "02cef13203f3bee6239c0415d6da7e9857e285368b74ef5f5aa38a2123fe631a",
	"selective/scidb/cohort-regression":            "d635adbb909615d4ea3a5855c42fc90784c0404b6e6cdb11199b2669e5cc3e19",
	"selective/scidb/covariance":                   "95ac1ea6d045698b9324737cb73fcca745895c8cc06d4655775cd9e02a2d5a19",
	"selective/scidb/regression":                   "ee63b63aae5852295d61f707b3fd75871ab07f1593897429722cc17842010700",
	"selective/scidb/select-genes()":               "9123a14cd1378a480c9e62e21cc39355ef2a8638384974dc699c74984647e7a9",
	"selective/scidb/select-patients()":            "9123a14cd1378a480c9e62e21cc39355ef2a8638384974dc699c74984647e7a9",
	"selective/scidb/statistics":                   "af5c9a16e7acc806536a2f9836429e67b8b7bf79dcb72d05eba6c3bfbff489a5",
	"selective/scidb/svd":                          "60ee11cf83541b8a1cc96017cf9b69f3a69169bce8ca5c685491a6f7fdb7d1f6",
	"selective/vanilla-r/biclustering":             "02cef13203f3bee6239c0415d6da7e9857e285368b74ef5f5aa38a2123fe631a",
	"selective/vanilla-r/cohort-regression":        "d635adbb909615d4ea3a5855c42fc90784c0404b6e6cdb11199b2669e5cc3e19",
	"selective/vanilla-r/covariance":               "95ac1ea6d045698b9324737cb73fcca745895c8cc06d4655775cd9e02a2d5a19",
	"selective/vanilla-r/regression":               "ee63b63aae5852295d61f707b3fd75871ab07f1593897429722cc17842010700",
	"selective/vanilla-r/select-genes()":           "9123a14cd1378a480c9e62e21cc39355ef2a8638384974dc699c74984647e7a9",
	"selective/vanilla-r/select-patients()":        "9123a14cd1378a480c9e62e21cc39355ef2a8638384974dc699c74984647e7a9",
	"selective/vanilla-r/statistics":               "af5c9a16e7acc806536a2f9836429e67b8b7bf79dcb72d05eba6c3bfbff489a5",
	"selective/vanilla-r/svd":                      "60ee11cf83541b8a1cc96017cf9b69f3a69169bce8ca5c685491a6f7fdb7d1f6",
}

// pivotPaths counts the row-store pivots on each side of the planner rule
// in internal/rowstore/queries.go pivotJoin: a bitmap fetch through the
// patientid index when the patient set is under a tenth of the table, else
// a scan of the sidecar segments. rowstore's TestIndexPlanMatchesSeqScanPlan
// checks that the engine follows the rule; this checks that the table
// exercises both sides of it.
type pivotPaths struct {
	plan.Physical[*linalg.Matrix]
	bitmap, scan int
}

func (p *pivotPaths) Pivot(ctx context.Context, patientIDs, geneIDs []int64) (*linalg.Matrix, error) {
	if n, _ := p.Dims(); patientIDs != nil && len(patientIDs)*10 < n {
		p.bitmap++
	} else {
		p.scan++
	}
	return p.Physical.Pivot(ctx, patientIDs, geneIDs)
}

// TestGeneratedInputAnswersUnchanged runs every single-node configuration
// over every supported scenario on each generated input and holds the
// answers to generatedGolden bit for bit. Each table row is a subtest named
// by its key (input/system/query).
func TestGeneratedInputAnswersUnchanged(t *testing.T) {
	if testing.Short() {
		t.Skip("generated-input sweep is not short")
	}
	ctx := context.Background()
	got := make(map[string]string)
	var rowPivots pivotPaths
	// record stores one row's hash and, unless regenerating, holds it to
	// the table.
	record := func(t *testing.T, key string, answer any) {
		t.Helper()
		h := goldenAnswerHash(t, answer)
		got[key] = h
		if *updateGolden {
			return
		}
		if want, ok := generatedGolden[key]; !ok {
			t.Errorf("%s: no recorded hash", key)
		} else if h != want {
			t.Errorf("%s: answer hash %s, want %s", key, h, want)
		}
	}
	for _, in := range generatedInputs {
		t.Run(in.name, func(t *testing.T) {
			ds, err := datagen.Generate(in.data)
			if err != nil {
				t.Fatal(err)
			}
			for _, cfg := range core.SingleNodeConfigs() {
				t.Run(cfg.Name, func(t *testing.T) {
					eng := cfg.New(1, t.TempDir())
					defer eng.Close()
					if err := eng.Load(ds); err != nil {
						t.Fatalf("load: %v", err)
					}
					phys := eng.(plan.Physical[*linalg.Matrix])
					if strings.HasPrefix(cfg.Name, "postgres-") {
						rowPivots.Physical = phys
						phys = &rowPivots
					}
					key := func(q string) string { return in.name + "/" + cfg.Name + "/" + q }
					for _, table := range []string{plan.TableGenes, plan.TablePatients} {
						q := "select-" + table + "()"
						t.Run(q, func(t *testing.T) {
							ids, err := phys.SelectIDs(ctx, table, nil)
							if err != nil {
								t.Fatal(err)
							}
							record(t, key(q), ids)
						})
					}
					for _, q := range engine.AllScenarios() {
						if !eng.Supports(q) {
							continue
						}
						t.Run(q.String(), func(t *testing.T) {
							pl, err := plan.Compile(q, in.params)
							if err != nil {
								t.Fatal(err)
							}
							res, err := plan.Execute(ctx, phys, pl)
							if err != nil {
								t.Fatal(err)
							}
							record(t, key(q.String()), res.Answer)
						})
					}
				})
			}
		})
	}

	if *updateGolden {
		keys := make([]string, 0, len(got))
		for k := range got {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var b strings.Builder
		for _, k := range keys {
			fmt.Fprintf(&b, "\t%q: %q,\n", k, got[k])
		}
		t.Logf("generatedGolden:\n%s", b.String())
	} else {
		for k := range generatedGolden {
			if _, ok := got[k]; !ok {
				t.Errorf("%s: no answer produced", k)
			}
		}
	}
	if rowPivots.bitmap == 0 || rowPivots.scan == 0 {
		t.Errorf("row-store pivots took bitmap=%d scan=%d: the table must hit both access paths", rowPivots.bitmap, rowPivots.scan)
	}
}
