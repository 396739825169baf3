package cost_test

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"github.com/genbase/genbase/internal/core"
	"github.com/genbase/genbase/internal/cost"
	"github.com/genbase/genbase/internal/datagen"
	"github.com/genbase/genbase/internal/engine"
	"github.com/genbase/genbase/internal/plan"
)

// TestEstimateTable certifies the committed model's estimate, bit for bit,
// for every serve-fleet member at 2 and 4 cluster nodes and every query the
// member supports, at FitDims and at the medium preset. It covers the keys
// PLANS.txt never prints (single-node scidb-phi, every hadoop cluster),
// which reach their coefficients only through Lookup's fallback chain. On a
// mismatch it logs the whole observed table in source form.
func TestEstimateTable(t *testing.T) {
	medium, err := datagen.PresetDims(datagen.Medium, 1)
	if err != nil {
		t.Fatal(err)
	}
	dims := []struct {
		name string
		d    cost.Dims
	}{
		{"fit", cost.FitDims},
		{"medium", cost.Dims{Patients: medium.Patients, Genes: medium.Genes, GOTerms: medium.GOTerms}},
	}
	p := engine.DefaultParams()
	m := cost.Default()
	got := map[string]uint64{}
	for _, nodes := range []int{2, 4} {
		fleet, err := core.FleetConfigs(nodes)
		if err != nil {
			t.Fatal(err)
		}
		for _, mem := range fleet {
			eng := mem.New(t.TempDir())
			for _, q := range engine.AllScenarios() {
				if !eng.Supports(q) {
					continue
				}
				pl, err := plan.Compile(q, p)
				if err != nil {
					t.Fatalf("compile %v: %v", q, err)
				}
				for _, d := range dims {
					est, ok := m.Estimate(pl, mem.Config, d.d)
					if !ok {
						t.Fatalf("%s %v: no estimate", mem.Key, q)
					}
					got[fmt.Sprintf("%s/%s/%s", mem.Key, q, d.name)] = math.Float64bits(est.TotalNs)
				}
			}
			eng.Close()
		}
	}
	bad := false
	for k, g := range got {
		if w, ok := estimateTable[k]; !ok || g != w {
			t.Errorf("%s: got %#x (%g ns), want %#x (%g ns)", k, g, math.Float64frombits(g), w, math.Float64frombits(w))
			bad = true
		}
	}
	for k := range estimateTable {
		if _, ok := got[k]; !ok {
			t.Errorf("%s: pinned but not estimated", k)
			bad = true
		}
	}
	if bad {
		keys := make([]string, 0, len(got))
		for k := range got {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var b strings.Builder
		for _, k := range keys {
			fmt.Fprintf(&b, "\t%q: %#x,\n", k, got[k])
		}
		t.Logf("observed table:\n%s", b.String())
	}
}

// fleetPlans calls f with every serve-fleet member at nodes cluster nodes
// and the compiled default plan of each query the member supports.
func fleetPlans(t *testing.T, nodes int, f func(mem core.FleetMember, q engine.QueryID, pl *plan.Plan)) {
	t.Helper()
	fleet, err := core.FleetConfigs(nodes)
	if err != nil {
		t.Fatal(err)
	}
	for _, mem := range fleet {
		eng := mem.New(t.TempDir())
		for _, q := range engine.AllScenarios() {
			if !eng.Supports(q) {
				continue
			}
			pl, err := plan.Compile(q, engine.DefaultParams())
			if err != nil {
				t.Fatalf("compile %v: %v", q, err)
			}
			f(mem, q, pl)
		}
		eng.Close()
	}
}

// An unobserved measured table prices every TestEstimateTable cell at the
// committed model's total, bit for bit.
func TestOnlineUnobservedIsTable(t *testing.T) {
	medium, err := datagen.PresetDims(datagen.Medium, 1)
	if err != nil {
		t.Fatal(err)
	}
	m := cost.Default()
	for name, d := range map[string]cost.Dims{
		"fit":    cost.FitDims,
		"medium": {Patients: medium.Patients, Genes: medium.Genes, GOTerms: medium.GOTerms},
	} {
		o := cost.NewOnline(m, d)
		for _, nodes := range []int{2, 4} {
			fleetPlans(t, nodes, func(mem core.FleetMember, q engine.QueryID, pl *plan.Plan) {
				key := fmt.Sprintf("%s/%s/%s", mem.Key, q, name)
				if _, ok := estimateTable[key]; !ok {
					t.Errorf("%s: not a TestEstimateTable cell", key)
				}
				want, _ := m.Estimate(pl, mem.Config, d)
				got, ok := o.Estimate(pl, mem.Config)
				if !ok || math.Float64bits(got.TotalNs) != math.Float64bits(want.TotalNs) {
					t.Errorf("%s: online %v, table %v", key, got.TotalNs, want.TotalNs)
				}
			})
		}
	}
}

// The router prices every supporting member per request: after a
// configuration's first estimate, pricing allocates nothing, observed or
// not.
func TestOnlineEstimateDoesNotAllocate(t *testing.T) {
	o := cost.NewOnline(cost.Default(), cost.FitDims)
	fleetPlans(t, 2, func(mem core.FleetMember, q engine.QueryID, pl *plan.Plan) {
		for _, observed := range []bool{false, true} {
			if observed {
				o.ObserveWall(mem.Config, pl, 1e6)
			}
			if n := testing.AllocsPerRun(10, func() { o.Estimate(pl, mem.Config) }); n != 0 {
				t.Errorf("%s %v (observed %v): %v allocations per estimate", mem.Key, q, observed, n)
			}
		}
	})
}

// estimateTable holds math.Float64bits of each estimate's TotalNs, keyed
// member/query/dims.
var estimateTable = map[string]uint64{
	"colstore-pbdr@2n/biclustering/fit":         0x414e7bd7d54e9afb,
	"colstore-pbdr@2n/biclustering/medium":      0x4186be13d80dd50d,
	"colstore-pbdr@2n/cohort-regression/fit":    0x414e8207721961a5,
	"colstore-pbdr@2n/cohort-regression/medium": 0x4186afd9c27e62fa,
	"colstore-pbdr@2n/covariance/fit":           0x41611ae5455fa842,
	"colstore-pbdr@2n/covariance/medium":        0x419cc8aac1f6955b,
	"colstore-pbdr@2n/regression/fit":           0x414e63396a2c4276,
	"colstore-pbdr@2n/regression/medium":        0x4186a82640831b2f,
	"colstore-pbdr@2n/statistics/fit":           0x4155108b5a04b91f,
	"colstore-pbdr@2n/statistics/medium":        0x418b14520f120e35,
	"colstore-pbdr@2n/svd/fit":                  0x414e8611d54564a9,
	"colstore-pbdr@2n/svd/medium":               0x4186d3397b7ea9f5,
	"colstore-pbdr@4n/biclustering/fit":         0x415010155cf61631,
	"colstore-pbdr@4n/biclustering/medium":      0x4187f7a94361244f,
	"colstore-pbdr@4n/cohort-regression/fit":    0x41501357d1232302,
	"colstore-pbdr@4n/cohort-regression/medium": 0x4187e8ab03205b06,
	"colstore-pbdr@4n/covariance/fit":           0x416206bf7323dab1,
	"colstore-pbdr@4n/covariance/medium":        0x419e558d3f5e91c6,
	"colstore-pbdr@4n/regression/fit":           0x4150031c6d1b2485,
	"colstore-pbdr@4n/regression/medium":        0x4187e08d511c5bc7,
	"colstore-pbdr@4n/statistics/fit":           0x415632fe2cb269b9,
	"colstore-pbdr@4n/statistics/medium":        0x418c89b401ed7bca,
	"colstore-pbdr@4n/svd/fit":                  0x41501578de05aa7f,
	"colstore-pbdr@4n/svd/medium":               0x41880df27c7f8171,
	"colstore-r/biclustering/fit":               0x414c3d92a5c643ec,
	"colstore-r/biclustering/medium":            0x418511a445e4376b,
	"colstore-r/cohort-regression/fit":          0x414c434db9958aca,
	"colstore-r/cohort-regression/medium":       0x4185047633f653cd,
	"colstore-r/covariance/fit":                 0x415fb15258860272,
	"colstore-r/covariance/medium":              0x419aaa6ba9e7cbed,
	"colstore-r/regression/fit":                 0x414c26c403250f45,
	"colstore-r/regression/medium":              0x4184fd53c65a34ec,
	"colstore-r/statistics/fit":                 0x415383b791758d8e,
	"colstore-r/statistics/medium":              0x4189162f1af56b0f,
	"colstore-r/svd/fit":                        0x414c470bfe62757d,
	"colstore-r/svd/medium":                     0x4185253b882a92a3,
	"colstore-udf/biclustering/fit":             0x413ee7a77cbce404,
	"colstore-udf/biclustering/medium":          0x41770e82a34d26e0,
	"colstore-udf/cohort-regression/fit":        0x413eedecfa408426,
	"colstore-udf/cohort-regression/medium":     0x417700163cdfc665,
	"colstore-udf/covariance/fit":               0x4151576400000002,
	"colstore-udf/covariance/medium":            0x418d2e7755e34b0e,
	"colstore-udf/regression/fit":               0x413eceb200000003,
	"colstore-udf/regression/medium":            0x4176f8477e4fa55d,
	"colstore-udf/statistics/fit":               0x41455b0b06c7d175,
	"colstore-udf/statistics/medium":            0x417b74176bd1b177,
	"colstore-udf/svd/fit":                      0x413ef205a7b73138,
	"colstore-udf/svd/medium":                   0x417723f311051a96,
	"colstore-udf@2n/biclustering/fit":          0x414fdb5e1892b906,
	"colstore-udf@2n/biclustering/medium":       0x4187c455507d2874,
	"colstore-udf@2n/cohort-regression/fit":     0x414fe1d50ad7a450,
	"colstore-udf@2n/cohort-regression/medium":  0x4187b5772c1e9a2d,
	"colstore-udf@2n/covariance/fit":            0x4161e024a4c037ea,
	"colstore-udf@2n/covariance/medium":         0x419e1496c6167292,
	"colstore-udf@2n/regression/fit":            0x414fc1a3c8e6c1ff,
	"colstore-udf@2n/regression/medium":         0x4187ad6adba26198,
	"colstore-udf@2n/statistics/fit":            0x41560373a5919ede,
	"colstore-udf@2n/statistics/medium":         0x418c4c9654f04634,
	"colstore-udf@2n/svd/fit":                   0x414fe60e0615c7c1,
	"colstore-udf@2n/svd/medium":                0x4187da6ecf78d683,
	"colstore-udf@4n/biclustering/fit":          0x414da96f14944531,
	"colstore-udf@4n/biclustering/medium":       0x41862119e78c9d9b,
	"colstore-udf@4n/cohort-regression/fit":     0x414daf73febea8f0,
	"colstore-udf@4n/cohort-regression/medium":  0x4186134204e170b7,
	"colstore-udf@4n/covariance/fit":            0x4160a4d4a8bcca60,
	"colstore-udf@4n/covariance/medium":         0x419c01fdbc948472,
	"colstore-udf@4n/regression/fit":            0x414d917a96dc12a6,
	"colstore-udf@4n/regression/medium":         0x41860bc3aae8cb25,
	"colstore-udf@4n/statistics/fit":            0x41547f2631dbcb98,
	"colstore-udf@4n/statistics/medium":         0x418a5968d921fb1b,
	"colstore-udf@4n/svd/fit":                   0x414db3627e3a0326,
	"colstore-udf@4n/svd/medium":                0x418635ad943c0dd2,
	"hadoop/cohort-regression/fit":              0x419ef72df51733be,
	"hadoop/cohort-regression/medium":           0x41d706f7e7f89a39,
	"hadoop/covariance/fit":                     0x41b15c943ae4ee9f,
	"hadoop/covariance/medium":                  0x41ed3732706485ad,
	"hadoop/regression/fit":                     0x419ed7e9a2ce3418,
	"hadoop/regression/medium":                  0x41d6ff26d3665a4f,
	"hadoop/statistics/fit":                     0x41a5616eb8cf08b2,
	"hadoop/statistics/medium":                  0x41db7c4e2b74e2e6,
	"hadoop/svd/fit":                            0x419efb47dc4f64e3,
	"hadoop/svd/medium":                         0x41d72adf76f27bdc,
	"hadoop@2n/cohort-regression/fit":           0x419ef72df51733be,
	"hadoop@2n/cohort-regression/medium":        0x41d706f7e7f89a39,
	"hadoop@2n/covariance/fit":                  0x41b15c943ae4ee9f,
	"hadoop@2n/covariance/medium":               0x41ed3732706485ad,
	"hadoop@2n/regression/fit":                  0x419ed7e9a2ce3418,
	"hadoop@2n/regression/medium":               0x41d6ff26d3665a4f,
	"hadoop@2n/statistics/fit":                  0x41a5616eb8cf08b2,
	"hadoop@2n/statistics/medium":               0x41db7c4e2b74e2e6,
	"hadoop@2n/svd/fit":                         0x419efb47dc4f64e3,
	"hadoop@2n/svd/medium":                      0x41d72adf76f27bdc,
	"hadoop@4n/cohort-regression/fit":           0x419ef72df51733be,
	"hadoop@4n/cohort-regression/medium":        0x41d706f7e7f89a39,
	"hadoop@4n/covariance/fit":                  0x41b15c943ae4ee9f,
	"hadoop@4n/covariance/medium":               0x41ed3732706485ad,
	"hadoop@4n/regression/fit":                  0x419ed7e9a2ce3418,
	"hadoop@4n/regression/medium":               0x41d6ff26d3665a4f,
	"hadoop@4n/statistics/fit":                  0x41a5616eb8cf08b2,
	"hadoop@4n/statistics/medium":               0x41db7c4e2b74e2e6,
	"hadoop@4n/svd/fit":                         0x419efb47dc4f64e3,
	"hadoop@4n/svd/medium":                      0x41d72adf76f27bdc,
	"pbdr@2n/biclustering/fit":                  0x41503b3a03ca8130,
	"pbdr@2n/biclustering/medium":               0x418838090baeb58f,
	"pbdr@2n/cohort-regression/fit":             0x41503e85393a55e7,
	"pbdr@2n/cohort-regression/medium":          0x418828e28643c793,
	"pbdr@2n/covariance/fit":                    0x4162372a3565b305,
	"pbdr@2n/covariance/medium":                 0x419ea706c1760e58,
	"pbdr@2n/regression/fit":                    0x41502e1e3c39cfcb,
	"pbdr@2n/regression/medium":                 0x418820af07c38485,
	"pbdr@2n/statistics/fit":                    0x41566e9e226c19ea,
	"pbdr@2n/statistics/medium":                 0x418cd65a68590fa2,
	"pbdr@2n/svd/fit":                           0x415040abfe107814,
	"pbdr@2n/svd/medium":                        0x41884e8e20781d3c,
	"pbdr@4n/biclustering/fit":                  0x414e00df9a66cfc5,
	"pbdr@4n/biclustering/medium":               0x41866255efa55a3a,
	"pbdr@4n/cohort-regression/fit":             0x414e06f642ff39f0,
	"pbdr@4n/cohort-regression/medium":          0x418654553e08577c,
	"pbdr@4n/covariance/fit":                    0x4160d5e512525bc1,
	"pbdr@4n/covariance/medium":                 0x419c548e006179dc,
	"pbdr@4n/regression/fit":                    0x414de8a47ed77856,
	"pbdr@4n/regression/medium":                 0x41864cc0ccfe6716,
	"pbdr@4n/statistics/fit":                    0x4154bb922792750a,
	"pbdr@4n/statistics/medium":                 0x418aa7157f791a16,
	"pbdr@4n/svd/fit":                           0x414e0af059834a8e,
	"pbdr@4n/svd/medium":                        0x4186772644cc1b04,
	"postgres-madlib/cohort-regression/fit":     0x413ff3ee7a91d4dd,
	"postgres-madlib/cohort-regression/medium":  0x4177c2ecc8079270,
	"postgres-madlib/covariance/fit":            0x4151ea4a80000001,
	"postgres-madlib/covariance/medium":         0x418e25aa5d4c66d6,
	"postgres-madlib/regression/fit":            0x413fd3aaf21a5292,
	"postgres-madlib/regression/medium":         0x4177badbe5e9b1dd,
	"postgres-madlib/statistics/fit":            0x41460ff2de38fdcf,
	"postgres-madlib/statistics/medium":         0x417c5ca70d61c205,
	"postgres-madlib/svd/fit":                   0x413ff829db7b15fd,
	"postgres-madlib/svd/medium":                0x4177e7f967d91733,
	"postgres-r/biclustering/fit":               0x415375b2d6417979,
	"postgres-r/biclustering/medium":            0x418d0937ed3378a9,
	"postgres-r/cohort-regression/fit":          0x415379a5c2658932,
	"postgres-r/cohort-regression/medium":       0x418cf70df850dbbf,
	"postgres-r/covariance/fit":                 0x4165d6aa5a2e749c,
	"postgres-r/covariance/medium":              0x41a25fe5c2a97c53,
	"postgres-r/regression/fit":                 0x415365fb984e2a6c,
	"postgres-r/regression/medium":              0x418ced38e3452c5c,
	"postgres-r/statistics/fit":                 0x415ae4d21d988bbf,
	"postgres-r/statistics/medium":              0x419149596a3969ab,
	"postgres-r/svd/fit":                        0x41537c3a136a491c,
	"postgres-r/svd/medium":                     0x418d2437adc5230b,
	"scidb-phi/biclustering/fit":                0x413814f41ece4ded,
	"scidb-phi/biclustering/medium":             0x4171f76135886b12,
	"scidb-phi/cohort-regression/fit":           0x413819d7284eea12,
	"scidb-phi/cohort-regression/medium":        0x4171ec2400457852,
	"scidb-phi/covariance/fit":                  0x414b069000000000,
	"scidb-phi/covariance/medium":               0x4186bd2b49a763af,
	"scidb-phi/regression/fit":                  0x4138018146bc9ab2,
	"scidb-phi/regression/medium":               0x4171e60e87e0e47a,
	"scidb-phi/statistics/fit":                  0x4140a40d94fcb07f,
	"scidb-phi/statistics/medium":               0x41756475c1823925,
	"scidb-phi/svd/fit":                         0x41381d0850042947,
	"scidb-phi/svd/medium":                      0x41720815ed20d24f,
	"scidb-phi@2n/biclustering/fit":             0x413814f41ece4ded,
	"scidb-phi@2n/biclustering/medium":          0x4171f76135886b12,
	"scidb-phi@2n/cohort-regression/fit":        0x413819d7284eea12,
	"scidb-phi@2n/cohort-regression/medium":     0x4171ec2400457852,
	"scidb-phi@2n/covariance/fit":               0x414b069000000000,
	"scidb-phi@2n/covariance/medium":            0x4186bd2b49a763af,
	"scidb-phi@2n/regression/fit":               0x4138018146bc9ab2,
	"scidb-phi@2n/regression/medium":            0x4171e60e87e0e47a,
	"scidb-phi@2n/statistics/fit":               0x4140a40d94fcb07f,
	"scidb-phi@2n/statistics/medium":            0x41756475c1823925,
	"scidb-phi@2n/svd/fit":                      0x41381d0850042947,
	"scidb-phi@2n/svd/medium":                   0x41720815ed20d24f,
	"scidb-phi@4n/biclustering/fit":             0x413814f41ece4ded,
	"scidb-phi@4n/biclustering/medium":          0x4171f76135886b12,
	"scidb-phi@4n/cohort-regression/fit":        0x413819d7284eea12,
	"scidb-phi@4n/cohort-regression/medium":     0x4171ec2400457852,
	"scidb-phi@4n/covariance/fit":               0x414b069000000000,
	"scidb-phi@4n/covariance/medium":            0x4186bd2b49a763af,
	"scidb-phi@4n/regression/fit":               0x4138018146bc9ab2,
	"scidb-phi@4n/regression/medium":            0x4171e60e87e0e47a,
	"scidb-phi@4n/statistics/fit":               0x4140a40d94fcb07f,
	"scidb-phi@4n/statistics/medium":            0x41756475c1823925,
	"scidb-phi@4n/svd/fit":                      0x41381d0850042947,
	"scidb-phi@4n/svd/medium":                   0x41720815ed20d24f,
	"scidb/biclustering/fit":                    0x413814f41ece4ded,
	"scidb/biclustering/medium":                 0x4171f76135886b12,
	"scidb/cohort-regression/fit":               0x413819d7284eea12,
	"scidb/cohort-regression/medium":            0x4171ec2400457852,
	"scidb/covariance/fit":                      0x414b069000000000,
	"scidb/covariance/medium":                   0x4186bd2b49a763af,
	"scidb/regression/fit":                      0x4138018146bc9ab2,
	"scidb/regression/medium":                   0x4171e60e87e0e47a,
	"scidb/statistics/fit":                      0x4140a40d94fcb07f,
	"scidb/statistics/medium":                   0x41756475c1823925,
	"scidb/svd/fit":                             0x41381d0850042947,
	"scidb/svd/medium":                          0x41720815ed20d24f,
	"scidb@2n/biclustering/fit":                 0x41491ab1beb93457,
	"scidb@2n/biclustering/medium":              0x4182baa6ee298248,
	"scidb@2n/cohort-regression/fit":            0x41491fc9e57e506a,
	"scidb@2n/cohort-regression/medium":         0x4182aeef911cc9fb,
	"scidb@2n/covariance/fit":                   0x415c2c4c72433342,
	"scidb@2n/covariance/medium":                0x4197b450637fc64c,
	"scidb@2n/regression/fit":                   0x4149066b849ceb70,
	"scidb@2n/regression/medium":                0x4182a897f8e470bd,
	"scidb@2n/statistics/fit":                   0x415158eb3b12f2d0,
	"scidb@2n/statistics/medium":                0x41864cf848a5751e,
	"scidb@2n/svd/fit":                          0x4149231dbeb19e31,
	"scidb@2n/svd/medium":                       0x4182cc1138866dd9,
	"scidb@4n/biclustering/fit":                 0x414caeaa72ad09aa,
	"scidb@4n/biclustering/medium":              0x41856603d6dae1f9,
	"scidb@4n/cohort-regression/fit":            0x414cb47c79985391,
	"scidb@4n/cohort-regression/medium":         0x418558a0fd01beb9,
	"scidb@4n/covariance/fit":                   0x4160181e9e6b359a,
	"scidb@4n/covariance/medium":                0x419b1534fc81f79f,
	"scidb@4n/regression/fit":                   0x414c97807a716e4a,
	"scidb@4n/regression/medium":                0x41855161fd380567,
	"scidb@4n/statistics/fit":                   0x4153d1dd97714f8d,
	"scidb@4n/statistics/medium":                0x41897aa59bad514d,
	"scidb@4n/svd/fit":                          0x414cb849bbe97cab,
	"scidb@4n/svd/medium":                       0x418579e98d693c89,
	"vanilla-r/biclustering/fit":                0x4143ab2335ec21af,
	"vanilla-r/biclustering/medium":             0x417d58f47bcc47eb,
	"vanilla-r/cohort-regression/fit":           0x4143af20fa2f17a4,
	"vanilla-r/cohort-regression/medium":        0x417d4698a58b64fb,
	"vanilla-r/covariance/fit":                  0x415612a306a11216,
	"vanilla-r/covariance/medium":               0x4192925b41d9fce6,
	"vanilla-r/regression/fit":                  0x41439b40cfa42256,
	"vanilla-r/regression/medium":               0x417d3ca89045ea54,
	"vanilla-r/statistics/fit":                  0x414b2eacb408f155,
	"vanilla-r/statistics/medium":               0x418178d1fbb01cb3,
	"vanilla-r/svd/fit":                         0x4143b1bc6083d5f3,
	"vanilla-r/svd/medium":                      0x417d743e60e96cf7,
}
