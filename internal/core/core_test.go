package core

import (
	"context"
	"strings"
	"testing"
	"time"

	"github.com/genbase/genbase/internal/datagen"
	"github.com/genbase/genbase/internal/engine"
)

func tinySuite() *Suite {
	return &Suite{
		Sizes:   []datagen.Size{datagen.Small},
		Scale:   0.25, // ~62×62
		Seed:    7,
		Timeout: 30 * time.Second,
		Nodes:   []int{1, 2},
	}
}

func TestConfigsComplete(t *testing.T) {
	names := map[string]bool{}
	for _, c := range Configs() {
		names[c.Name] = true
	}
	for _, want := range []string{"vanilla-r", "postgres-madlib", "postgres-r", "colstore-r",
		"colstore-udf", "scidb", "hadoop", "pbdr", "colstore-pbdr", "scidb-phi"} {
		if !names[want] {
			t.Fatalf("missing configuration %s", want)
		}
	}
	if len(SingleNodeConfigs()) != 7 {
		t.Fatalf("paper has 7 single-node configurations, got %d", len(SingleNodeConfigs()))
	}
	if len(MultiNodeConfigs()) != 5 {
		t.Fatalf("paper has 5 multi-node systems, got %d", len(MultiNodeConfigs()))
	}
}

func TestConfigByName(t *testing.T) {
	if _, err := ConfigByName("scidb"); err != nil {
		t.Fatal(err)
	}
	if _, err := ConfigByName("oracle"); err == nil {
		t.Fatal("expected error for unknown system")
	}
}

// Every engine a configuration builds reports that configuration's name:
// the runner labels outcomes with it and a served backend keys its cache by
// it. Sixteen registry constructions (single-node and cluster) and the
// fourteen fleet members.
func TestEveryConstructionReportsItsConfigName(t *testing.T) {
	dir := t.TempDir()
	n := 0
	check := func(what, want string, eng engine.Engine) {
		t.Helper()
		n++
		if got := eng.Name(); got != want {
			t.Errorf("%s reports %q, want %q", what, got, want)
		}
	}
	for _, c := range Configs() {
		check(c.Name+" New", c.Name, c.New(1, dir))
		if c.NewCluster != nil {
			check(c.Name+" NewCluster", c.Name, c.NewCluster(2))
		}
	}
	if n != 16 {
		t.Errorf("%d registry constructions, want 16", n)
	}
	fleet, err := FleetConfigs(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range fleet {
		check("fleet member "+m.Key, m.Config.System, m.New(dir))
	}
	if n != 16+14 {
		t.Errorf("%d fleet members, want 14", n-16)
	}
}

func TestRunSystemAllQueries(t *testing.T) {
	s := tinySuite()
	ds, err := s.Dataset(datagen.Small)
	if err != nil {
		t.Fatal(err)
	}
	cfg, _ := ConfigByName("scidb")
	outs, err := Runner{Timeout: 30 * time.Second}.RunSystem(context.Background(), cfg, ds, 1, engine.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 5 {
		t.Fatalf("got %d outcomes", len(outs))
	}
	for _, o := range outs {
		if !o.Completed() {
			t.Fatalf("%v did not complete: %+v", o.Query, o)
		}
		if o.Timing.Total() <= 0 {
			t.Fatalf("%v has no timing", o.Query)
		}
	}
}

func TestRunnerClassifiesTimeout(t *testing.T) {
	s := tinySuite()
	ds, err := s.Dataset(datagen.Small)
	if err != nil {
		t.Fatal(err)
	}
	cfg, _ := ConfigByName("postgres-madlib") // simulated-SQL SVD is slowest
	outs, err := Runner{Timeout: time.Millisecond}.RunSystem(context.Background(), cfg, ds, 1, engine.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	sawInfinite := false
	for _, o := range outs {
		if o.Infinite {
			sawInfinite = true
		}
	}
	if !sawInfinite {
		t.Fatal("1ms cutoff should mark queries infinite")
	}
}

func TestRunnerClassifiesUnsupported(t *testing.T) {
	s := tinySuite()
	ds, _ := s.Dataset(datagen.Small)
	cfg, _ := ConfigByName("hadoop")
	outs, err := Runner{Timeout: 30 * time.Second}.RunSystem(context.Background(), cfg, ds, 1, engine.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range outs {
		if o.Query == engine.Q3Biclustering && !o.Unsupported {
			t.Fatal("Hadoop biclustering must be unsupported")
		}
	}
}

func TestRunnerClassifiesOOMLoad(t *testing.T) {
	// Vanilla R at default cell budget cannot load the large preset.
	s := &Suite{Sizes: []datagen.Size{datagen.Large}, Seed: 7}
	ds, err := s.Dataset(datagen.Large)
	if err != nil {
		t.Fatal(err)
	}
	cfg, _ := ConfigByName("vanilla-r")
	outs, err := Runner{Timeout: 30 * time.Second}.RunSystem(context.Background(), cfg, ds, 1, engine.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range outs {
		if !o.Infinite {
			t.Fatalf("%v should be infinite after a load OOM", o.Query)
		}
	}
}

func TestSuiteFigure1And2(t *testing.T) {
	s := tinySuite()
	outs, err := s.RunSingleNode(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	tables, err := s.Figure1(outs)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 5 {
		t.Fatalf("Figure 1 has 5 panels, got %d", len(tables))
	}
	// Every single-node system must have a finite regression measurement at
	// this tiny size.
	reg := tables[0]
	for _, sys := range systemNames(SingleNodeConfigs()) {
		c := reg.Get(sys, reg.ColLabels[0])
		if c.Missing || c.Infinite {
			t.Fatalf("%s regression missing/INF at tiny size", sys)
		}
	}
	// Hadoop must be absent from the biclustering panel.
	bic := tables[1]
	if !bic.Get("hadoop", bic.ColLabels[0]).Missing {
		t.Fatal("hadoop should be missing from biclustering")
	}
	if !bic.Get("postgres-madlib", bic.ColLabels[0]).Missing {
		t.Fatal("postgres-madlib should be missing from biclustering")
	}

	f2, err := s.Figure2(outs)
	if err != nil {
		t.Fatal(err)
	}
	if len(f2) != 2 {
		t.Fatalf("Figure 2 has 2 panels")
	}
	// DM + analytics must be ≤ total (transfer folded into DM).
	dm := f2[0].Get("postgres-r", f2[0].ColLabels[0]).Seconds
	an := f2[1].Get("postgres-r", f2[1].ColLabels[0]).Seconds
	total := reg.Get("postgres-r", reg.ColLabels[0]).Seconds
	if dm+an > total*1.001 {
		t.Fatalf("phase split inconsistent: %v + %v > %v", dm, an, total)
	}
}

func TestSuiteMultiNodeFigures(t *testing.T) {
	s := tinySuite()
	// Multi-node runs on the Large preset per the paper; shrink it.
	s.Scale = 0.05 // large 0.05 → 100×75
	outs, err := s.RunMultiNode(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	f3 := s.Figure3(outs)
	if len(f3) != 5 {
		t.Fatalf("Figure 3 has 5 panels")
	}
	reg := f3[0]
	for _, sys := range systemNames(MultiNodeConfigs()) {
		for _, col := range reg.ColLabels {
			c := reg.Get(sys, col)
			if c.Missing {
				t.Fatalf("%s/%s regression missing", sys, col)
			}
		}
	}
	f4 := s.Figure4(outs)
	if len(f4) != 2 {
		t.Fatal("Figure 4 has 2 panels")
	}
}

func TestSuitePhiAndTable1(t *testing.T) {
	s := tinySuite()
	s.Scale = 0.1
	outs, err := s.RunPhi(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	f5, err := s.Figure5(outs)
	if err != nil {
		t.Fatal(err)
	}
	if len(f5) != 4 {
		t.Fatalf("Figure 5 has 4 panels (no regression), got %d", len(f5))
	}

	mnOuts, err := s.RunPhiMultiNode(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	t1 := s.Table1(mnOuts)
	for _, row := range t1.RowLabels {
		for _, col := range t1.ColLabels {
			c := t1.Get(row, col)
			if c.Missing {
				t.Fatalf("Table 1 %s/%s missing", row, col)
			}
			if c.Seconds <= 0 {
				t.Fatalf("Table 1 %s/%s ratio %v", row, col, c.Seconds)
			}
		}
	}
}

func TestTableRender(t *testing.T) {
	tab := NewTable("Demo", "system", []string{"a", "b"}, []string{"x"})
	tab.Set("a", "x", Cell{Seconds: 1.5})
	tab.Set("b", "x", Cell{Infinite: true})
	out := tab.Render()
	if !strings.Contains(out, "1.500") || !strings.Contains(out, "INF") || !strings.Contains(out, "Demo") {
		t.Fatalf("render:\n%s", out)
	}
}

func TestCellString(t *testing.T) {
	if (Cell{Missing: true}).String() != "-" || (Cell{Infinite: true}).String() != "INF" {
		t.Fatal("cell rendering")
	}
}
