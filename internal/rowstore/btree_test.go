package rowstore

import (
	"context"
	"sort"
	"testing"
	"testing/quick"

	"github.com/genbase/genbase/internal/relation"
	"github.com/genbase/genbase/internal/storage"
)

func TestBTreeInsertSearch(t *testing.T) {
	bt := NewBTree(4) // tiny order to force splits
	for i := int64(0); i < 1000; i++ {
		bt.Insert(i*7%1000, storage.RID{Page: i, Slot: int(i % 10)})
	}
	if bt.Len() != 1000 {
		t.Fatalf("len=%d", bt.Len())
	}
	for _, k := range []int64{0, 7, 993, 500} {
		rids := bt.Search(k)
		if len(rids) != 1 {
			t.Fatalf("key %d: %d rids", k, len(rids))
		}
	}
	if bt.Search(12345) != nil {
		t.Fatal("absent key must return nil")
	}
}

func TestBTreeDuplicates(t *testing.T) {
	bt := NewBTree(4)
	for i := int64(0); i < 100; i++ {
		bt.Insert(i%5, storage.RID{Page: i})
	}
	for k := int64(0); k < 5; k++ {
		if len(bt.Search(k)) != 20 {
			t.Fatalf("key %d: %d rids, want 20", k, len(bt.Search(k)))
		}
	}
}

func TestBTreeRange(t *testing.T) {
	bt := NewBTree(4)
	for i := int64(0); i < 200; i += 2 { // even keys only
		bt.Insert(i, storage.RID{Page: i})
	}
	var keys []int64
	bt.Range(50, 100, func(k int64, rids []storage.RID) bool {
		keys = append(keys, k)
		return true
	})
	if len(keys) != 25 || keys[0] != 50 || keys[24] != 98 {
		t.Fatalf("range keys: %v", keys)
	}
	if !sort.SliceIsSorted(keys, func(a, b int) bool { return keys[a] < keys[b] }) {
		t.Fatal("range not in key order")
	}
	// Early stop.
	count := 0
	bt.Range(0, 1000, func(int64, []storage.RID) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Fatalf("early stop failed: %d", count)
	}
}

// Property: the B+tree agrees with a reference multimap under random
// workloads, and range scans visit keys in sorted order.
func TestBTreeMatchesReferenceMap(t *testing.T) {
	f := func(keys []int16) bool {
		bt := NewBTree(6)
		ref := map[int64]int{}
		for i, k16 := range keys {
			k := int64(k16)
			bt.Insert(k, storage.RID{Page: int64(i)})
			ref[k]++
		}
		for k, n := range ref {
			if len(bt.Search(k)) != n {
				return false
			}
		}
		// Full-range scan sees every key exactly once, ascending.
		prev := int64(-1 << 62)
		seen := 0
		bt.Range(-1<<62, 1<<62, func(k int64, rids []storage.RID) bool {
			if k <= prev {
				return false
			}
			prev = k
			seen += len(rids)
			return true
		})
		return seen == len(keys)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCollectRIDsPhysicalOrder(t *testing.T) {
	bt := NewBTree(8)
	bt.Insert(1, storage.RID{Page: 9, Slot: 0})
	bt.Insert(2, storage.RID{Page: 3, Slot: 5})
	bt.Insert(1, storage.RID{Page: 3, Slot: 1})
	rids := bt.CollectRIDs([]int64{1, 2})
	if len(rids) != 3 {
		t.Fatalf("rids=%v", rids)
	}
	for i := 1; i < len(rids); i++ {
		if rids[i].Less(rids[i-1]) {
			t.Fatalf("not in physical order: %v", rids)
		}
	}
}

func TestBitmapScanFetchesExactRows(t *testing.T) {
	db, err := OpenDB(t.TempDir() + "/db")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbl, err := db.CreateTable("kv", kvSchema)
	if err != nil {
		t.Fatal(err)
	}
	idx := tbl.CreateIndex("k")
	var scratch []byte
	for i := 0; i < 5000; i++ {
		if scratch, err = tbl.Insert(kvRow(int64(i%50), float64(i)), scratch); err != nil {
			t.Fatal(err)
		}
	}
	if idx.Len() != 5000 {
		t.Fatalf("index has %d entries", idx.Len())
	}
	rids := idx.CollectRIDs([]int64{7, 13})
	if len(rids) != 200 {
		t.Fatalf("collected %d rids", len(rids))
	}
	count := 0
	err = scanRIDsColumnar(context.Background(), tbl, rids, func(b *relation.ColumnBatch) error {
		for _, k := range b.Ints[0] {
			if k != 7 && k != 13 {
				t.Fatalf("unexpected key %d", k)
			}
		}
		count += b.Len()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 200 {
		t.Fatalf("scanned %d rows", count)
	}
}

// The planner must produce identical query answers whichever access path it
// picks — verified by comparing the pivot built from a selective patient set
// (bitmap fetch from the heap) against the full sidecar scan on the same
// data. The microarray heap's buffer pool shows which path ran: the bitmap
// fetch reads heap pages, the sidecar scan never touches them.
func TestIndexPlanMatchesSeqScanPlan(t *testing.T) {
	e := loaded(t, ModeR)
	ctx := context.Background()
	micro, err := e.db.Table("microarray")
	if err != nil {
		t.Fatal(err)
	}
	pool := micro.Heap.Pool()
	heapReads := func() int64 { return pool.Hits.Load() + pool.Misses.Load() }
	sel := []int64{1, 5, 9}
	before := heapReads()
	viaIndex, err := e.pivotJoin(ctx, nil, sel)
	if err != nil {
		t.Fatal(err)
	}
	if heapReads() == before {
		t.Fatal("selective pivot did not fetch through the bitmap index")
	}
	before = heapReads()
	full, err := e.pivotJoin(ctx, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if heapReads() != before {
		t.Fatal("full pivot read the heap instead of the sidecar")
	}
	for k, pid := range sel {
		for j := 0; j < viaIndex.Cols; j++ {
			if viaIndex.At(k, j) != full.At(int(pid), j) {
				t.Fatalf("mismatch at patient %d gene %d", pid, j)
			}
		}
	}
}

// Range calls fn for every entry with lo ≤ key < hi, in key order. fn
// returning false stops the scan.
func (t *BTree) Range(lo, hi int64, fn func(key int64, rids []storage.RID) bool) {
	n := t.findLeaf(lo)
	for n != nil {
		for i, k := range n.keys {
			if k < lo {
				continue
			}
			if k >= hi {
				return
			}
			if !fn(k, n.rids[i]) {
				return
			}
		}
		n = n.next
	}
}
