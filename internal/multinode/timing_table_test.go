package multinode

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/genbase/genbase/internal/engine"
)

// phaseNs is one query's reported phase split in nanoseconds:
// DataManagement, Analytics, Transfer.
type phaseNs [3]int64

// timingTable pins the engine.Timing every virtual-cluster configuration
// reports for every scenario under the 1-ms stepping clock, keyed
// "config@Nn/query". Under that clock a query's virtual time is an exact
// function of its plan, placement and bytes sent, so any change to how
// makespan growth is split into phases moves a cell. Queries a
// configuration does not support (Q3 on Hadoop) have no cell.
var timingTable = map[string]phaseNs{
	"colstore-pbdr@1n/biclustering":      {8000000, 1000000, 0},
	"colstore-pbdr@1n/cohort-regression": {8000000, 15000000, 0},
	"colstore-pbdr@1n/covariance":        {9000000, 10000000, 0},
	"colstore-pbdr@1n/regression":        {4000000, 15000000, 0},
	"colstore-pbdr@1n/statistics":        {5000000, 1000000, 0},
	"colstore-pbdr@1n/svd":               {4000000, 75000000, 0},
	"colstore-pbdr@2n/biclustering":      {4124000, 1000000, 0},
	"colstore-pbdr@2n/cohort-regression": {4000000, 9401024, 0},
	"colstore-pbdr@2n/covariance":        {5000000, 6669600, 0},
	"colstore-pbdr@2n/regression":        {2000000, 9440000, 0},
	"colstore-pbdr@2n/statistics":        {3104800, 1000000, 0},
	"colstore-pbdr@2n/svd":               {2000000, 48044160, 0},
	"colstore-pbdr@4n/biclustering":      {2124000, 1000000, 0},
	"colstore-pbdr@4n/cohort-regression": {2000000, 6401024, 0},
	"colstore-pbdr@4n/covariance":        {3000000, 4669600, 0},
	"colstore-pbdr@4n/regression":        {1000000, 6440000, 0},
	"colstore-pbdr@4n/statistics":        {2104800, 1000000, 0},
	"colstore-pbdr@4n/svd":               {1000000, 33044160, 0},
	"colstore-udf@1n/biclustering":       {8000000, 1000000, 0},
	"colstore-udf@1n/cohort-regression":  {8000000, 1000000, 0},
	"colstore-udf@1n/covariance":         {9000000, 1000000, 0},
	"colstore-udf@1n/regression":         {4000000, 1000000, 0},
	"colstore-udf@1n/statistics":         {5000000, 1000000, 0},
	"colstore-udf@1n/svd":                {4000000, 1000000, 0},
	"colstore-udf@2n/biclustering":       {4124000, 1000000, 0},
	"colstore-udf@2n/cohort-regression":  {4000000, 1100128, 0},
	"colstore-udf@2n/covariance":         {5000000, 1104800, 0},
	"colstore-udf@2n/regression":         {2000000, 1127968, 0},
	"colstore-udf@2n/statistics":         {3104800, 1000000, 0},
	"colstore-udf@2n/svd":                {2000000, 1127968, 0},
	"colstore-udf@4n/biclustering":       {2124000, 1000000, 0},
	"colstore-udf@4n/cohort-regression":  {2000000, 1100127, 0},
	"colstore-udf@4n/covariance":         {3000000, 1104800, 0},
	"colstore-udf@4n/regression":         {1000000, 1127968, 0},
	"colstore-udf@4n/statistics":         {2104800, 1000000, 0},
	"colstore-udf@4n/svd":                {1000000, 1127968, 0},
	"hadoop@1n/cohort-regression":        {34000000, 17000000, 0},
	"hadoop@1n/covariance":               {25000000, 24000000, 0},
	"hadoop@1n/regression":               {25000000, 25000000, 0},
	"hadoop@1n/statistics":               {32000000, 0, 0},
	"hadoop@1n/svd":                      {25000000, 240000000, 0},
	"hadoop@2n/cohort-regression":        {18300888, 9502872, 0},
	"hadoop@2n/covariance":               {13332048, 12763584, 0},
	"hadoop@2n/regression":               {13996407, 13976473, 0},
	"hadoop@2n/statistics":               {16907240, 0, 0},
	"hadoop@2n/svd":                      {13996407, 121553961, 0},
	"hadoop@4n/cohort-regression":        {10401247, 5401792, 0},
	"hadoop@4n/covariance":               {7339856, 6752080, 0},
	"hadoop@4n/regression":               {7995296, 7963440, 0},
	"hadoop@4n/statistics":               {8906128, 0, 0},
	"hadoop@4n/svd":                      {7995296, 61554112, 0},
	"pbdr@1n/biclustering":               {8000000, 1000000, 0},
	"pbdr@1n/cohort-regression":          {8000000, 15000000, 0},
	"pbdr@1n/covariance":                 {9000000, 10000000, 0},
	"pbdr@1n/regression":                 {4000000, 15000000, 0},
	"pbdr@1n/statistics":                 {5000000, 1000000, 0},
	"pbdr@1n/svd":                        {4000000, 75000000, 0},
	"pbdr@2n/biclustering":               {4124000, 1000000, 0},
	"pbdr@2n/cohort-regression":          {4000000, 9401024, 0},
	"pbdr@2n/covariance":                 {5000000, 6669600, 0},
	"pbdr@2n/regression":                 {2000000, 9440000, 0},
	"pbdr@2n/statistics":                 {3104800, 1000000, 0},
	"pbdr@2n/svd":                        {2000000, 48044160, 0},
	"pbdr@4n/biclustering":               {2124000, 1000000, 0},
	"pbdr@4n/cohort-regression":          {2000000, 6401024, 0},
	"pbdr@4n/covariance":                 {3000000, 4669600, 0},
	"pbdr@4n/regression":                 {1000000, 6440000, 0},
	"pbdr@4n/statistics":                 {2104800, 1000000, 0},
	"pbdr@4n/svd":                        {1000000, 33044160, 0},
	"scidb-phi@1n/biclustering":          {8000000, 949304, 0},
	"scidb-phi@1n/cohort-regression":     {8000000, 15000000, 0},
	"scidb-phi@1n/covariance":            {9000000, 7909793, 0},
	"scidb-phi@1n/regression":            {4000000, 15000000, 0},
	"scidb-phi@1n/statistics":            {5000000, 790172, 0},
	"scidb-phi@1n/svd":                   {4000000, 41005569, 0},
	"scidb-phi@2n/biclustering":          {4124000, 949304, 0},
	"scidb-phi@2n/cohort-regression":     {4000000, 9601280, 0},
	"scidb-phi@2n/covariance":            {5000000, 5834003, 0},
	"scidb-phi@2n/regression":            {2000000, 9695200, 0},
	"scidb-phi@2n/statistics":            {3104800, 790172, 0},
	"scidb-phi@2n/svd":                   {2000000, 31302130, 0},
	"scidb-phi@4n/biclustering":          {2124000, 949304, 0},
	"scidb-phi@4n/cohort-regression":     {2000000, 6801152, 0},
	"scidb-phi@4n/covariance":            {3000000, 4551848, 0},
	"scidb-phi@4n/regression":            {1000000, 6867584, 0},
	"scidb-phi@4n/statistics":            {2104800, 790172, 0},
	"scidb-phi@4n/svd":                   {1000000, 24973143, 0},
	"scidb@1n/biclustering":              {8000000, 1000000, 0},
	"scidb@1n/cohort-regression":         {8000000, 15000000, 0},
	"scidb@1n/covariance":                {9000000, 10000000, 0},
	"scidb@1n/regression":                {4000000, 15000000, 0},
	"scidb@1n/statistics":                {5000000, 1000000, 0},
	"scidb@1n/svd":                       {4000000, 75000000, 0},
	"scidb@2n/biclustering":              {4124000, 1000000, 0},
	"scidb@2n/cohort-regression":         {4000000, 9601280, 0},
	"scidb@2n/covariance":                {5000000, 6879200, 0},
	"scidb@2n/regression":                {2000000, 9695200, 0},
	"scidb@2n/statistics":                {3104800, 1000000, 0},
	"scidb@2n/svd":                       {2000000, 48299360, 0},
	"scidb@4n/biclustering":              {2124000, 1000000, 0},
	"scidb@4n/cohort-regression":         {2000000, 6801152, 0},
	"scidb@4n/covariance":                {2999999, 5074400, 0},
	"scidb@4n/regression":                {1000000, 6867584, 0},
	"scidb@4n/statistics":                {2104800, 1000000, 0},
	"scidb@4n/svd":                       {1000000, 33471744, 0},
}

// timedConfig is one configuration of the table, timed by the stepping
// clock.
type timedConfig struct {
	name string
	eng  engine.Engine
}

// timingConfigs lists every configuration of the table: each kind and the
// cluster Hadoop wrapper at 1, 2 and 4 nodes.
func timingConfigs() []timedConfig {
	var out []timedConfig
	for _, nodes := range []int{1, 2, 4} {
		for _, kind := range AllKinds() {
			e := New(kind, nodes)
			e.now = steppingClock(time.Millisecond)
			out = append(out, timedConfig{fmt.Sprintf("%s@%dn", kind, nodes), e})
		}
		out = append(out, timedConfig{fmt.Sprintf("hadoop@%dn", nodes), steppedHadoop(nodes)})
	}
	return out
}

// TestTimingTable certifies the phase split of every query and
// configuration to the nanosecond. Each configuration runs its queries in
// sequence on one loaded engine, so the cells also show that no query's
// virtual time leaks into the next. On a mismatch it logs the whole
// observed table in source form.
func TestTimingTable(t *testing.T) {
	ds := testDataset()
	p := engine.DefaultParams()
	p.SVDK = 5
	got := map[string]phaseNs{}
	for _, cfg := range timingConfigs() {
		if err := cfg.eng.Load(ds); err != nil {
			t.Fatal(err)
		}
		for _, q := range engine.AllScenarios() {
			if !cfg.eng.Supports(q) {
				continue
			}
			res, err := cfg.eng.Run(context.Background(), q, p)
			if err != nil {
				t.Fatalf("%s %v: %v", cfg.name, q, err)
			}
			tm := res.Timing
			got[fmt.Sprintf("%s/%s", cfg.name, q)] = phaseNs{
				int64(tm.DataManagement), int64(tm.Analytics), int64(tm.Transfer)}
		}
	}
	bad := false
	for k, g := range got {
		if w, ok := timingTable[k]; !ok || g != w {
			t.Errorf("%s: got %v, want %v", k, g, w)
			bad = true
		}
	}
	for k := range timingTable {
		if _, ok := got[k]; !ok {
			t.Errorf("%s: pinned but not run", k)
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
			g := got[k]
			fmt.Fprintf(&b, "\t%q: {%d, %d, %d},\n", k, g[0], g[1], g[2])
		}
		t.Logf("observed table:\n%s", b.String())
	}
}
