package rowstore

import (
	"context"
	"path/filepath"
	"testing"

	"github.com/genbase/genbase/internal/relation"
)

// Collect materializes an iterator into an in-memory table.
func Collect(it Iterator) (*relation.Table, error) {
	if err := it.Open(); err != nil {
		return nil, err
	}
	defer it.Close()
	t := relation.NewTable("result", it.Schema())
	for {
		r, ok, err := it.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return t, nil
		}
		t.Rows = append(t.Rows, r.Clone())
	}
}

func memTable(name string, schema relation.Schema, rows ...relation.Row) *relation.Table {
	t := relation.NewTable(name, schema)
	t.Rows = rows
	return t
}

var kvSchema = relation.Schema{
	{Name: "k", Kind: relation.KindInt64},
	{Name: "v", Kind: relation.KindFloat64},
}

func kvRow(k int64, v float64) relation.Row {
	return relation.Row{relation.IntVal(k), relation.FloatVal(v)}
}

func collectRows(t *testing.T, it Iterator) []relation.Row {
	t.Helper()
	tab, err := Collect(it)
	if err != nil {
		t.Fatal(err)
	}
	return tab.Rows
}

func TestHashJoinMatchesAndDuplicates(t *testing.T) {
	build := memTable("b", kvSchema, kvRow(1, 100), kvRow(1, 101), kvRow(2, 200))
	probe := memTable("p", kvSchema, kvRow(1, 1), kvRow(2, 2), kvRow(3, 3))
	rows := collectRows(t, &HashJoin{
		Build: &MemScan{Table: build}, Probe: &MemScan{Table: probe},
		BuildKey: 0, ProbeKey: 0,
	})
	// Probe row 1 matches two build rows; probe row 2 matches one; 3 none.
	if len(rows) != 3 {
		t.Fatalf("join produced %d rows", len(rows))
	}
	seen := map[float64]bool{}
	for _, r := range rows {
		if r[0].I != r[2].I {
			t.Fatal("join keys disagree")
		}
		seen[r[3].F] = true
	}
	if !seen[100] || !seen[101] || !seen[200] {
		t.Fatalf("missing build payloads: %v", seen)
	}
}

func TestSortOperator(t *testing.T) {
	tab := memTable("t", kvSchema, kvRow(3, 1), kvRow(1, 2), kvRow(2, 3))
	rows := collectRows(t, &SortOp{
		Child: &MemScan{Table: tab},
		Less:  func(a, b relation.Row) bool { return a[0].I < b[0].I },
	})
	for i, r := range rows {
		if r[0].I != int64(i+1) {
			t.Fatalf("order wrong: %v", rows)
		}
	}
}

func TestHashAggSumCountAvg(t *testing.T) {
	tab := memTable("t", kvSchema, kvRow(1, 1), kvRow(1, 3), kvRow(2, 10))
	rows := collectRows(t, &HashAgg{
		Child: &MemScan{Table: tab},
		Key:   0,
		Aggs:  []AggSpec{{Col: 1, Kind: AggSum}, {Col: 1, Kind: AggCount}, {Col: 1, Kind: AggAvg}},
	})
	if len(rows) != 2 {
		t.Fatalf("groups=%d", len(rows))
	}
	// Keys stream in ascending order.
	if rows[0][0].I != 1 || rows[0][1].F != 4 || rows[0][2].F != 2 || rows[0][3].F != 2 {
		t.Fatalf("group 1: %v", rows[0])
	}
	if rows[1][0].I != 2 || rows[1][1].F != 10 {
		t.Fatalf("group 2: %v", rows[1])
	}
}

func TestEvalOperator(t *testing.T) {
	tab := memTable("t", kvSchema, kvRow(2, 3))
	it := &Eval{
		Child: &MemScan{Table: tab},
		Name:  "prod",
		Fn:    func(r relation.Row) relation.Value { return relation.FloatVal(float64(r[0].I) * r[1].F) },
	}
	rows := collectRows(t, it)
	if rows[0][2].F != 6 {
		t.Fatalf("eval result %v", rows[0])
	}
	if it.Schema()[2].Name != "prod" {
		t.Fatal("eval schema name")
	}
}

func TestSeqScanAgainstHeap(t *testing.T) {
	db, err := OpenDB(filepath.Join(t.TempDir(), "db"))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbl, err := db.CreateTable("nums", kvSchema)
	if err != nil {
		t.Fatal(err)
	}
	var scratch []byte
	for i := 0; i < 2000; i++ {
		if scratch, err = tbl.Insert(kvRow(int64(i), float64(i)*0.5), scratch); err != nil {
			t.Fatal(err)
		}
	}
	sum := 0.0
	count := 0
	err = Drain(&SeqScan{Ctx: context.Background(), Table: tbl}, func(r relation.Row) error {
		if r[0].I != int64(count) {
			t.Fatalf("row order broken at %d", count)
		}
		sum += r[1].F
		count++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 2000 || sum != 0.5*1999*2000/2 {
		t.Fatalf("count=%d sum=%v", count, sum)
	}
}

func TestCollect(t *testing.T) {
	tab := memTable("t", kvSchema, kvRow(1, 1), kvRow(2, 2))
	out, err := Collect(&MemScan{Table: tab})
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 2 {
		t.Fatalf("len=%d", out.Len())
	}
}
