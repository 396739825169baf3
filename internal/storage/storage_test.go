package storage

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"
)

func TestPageInsertAndRead(t *testing.T) {
	var p Page
	InitPage(&p)
	s1, err := p.InsertRecord([]byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	s2, err := p.InsertRecord([]byte("world!"))
	if err != nil {
		t.Fatal(err)
	}
	if r, ok := p.Record(s1); !ok || string(r) != "hello" {
		t.Fatalf("record 1: %q %v", r, ok)
	}
	if r, ok := p.Record(s2); !ok || string(r) != "world!" {
		t.Fatalf("record 2: %q %v", r, ok)
	}
}

// A slot outside the page is absent, on the page and through the heap
// file: the range check is all that stands between a bad locator and the
// bytes of the header or of free space.
func TestSlotOutsidePageIsAbsent(t *testing.T) {
	var p Page
	InitPage(&p)
	for _, rec := range []string{"a", "bb"} {
		if _, err := p.InsertRecord([]byte(rec)); err != nil {
			t.Fatal(err)
		}
	}
	for _, slot := range []int{-1, p.NumSlots()} {
		if r, ok := p.Record(slot); ok || r != nil {
			t.Fatalf("Record(%d) = %d bytes, %v; want nil, false", slot, len(r), ok)
		}
	}

	h := tempHeap(t, 2)
	var last RID
	for i := 0; i < 3; i++ {
		rid, err := h.AppendLocated([]byte(fmt.Sprintf("record-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		last = rid
	}
	for _, slot := range []int{-1, last.Slot + 1} {
		rid := RID{Page: last.Page, Slot: slot}
		if rec, err := h.FetchRecordInto(rid, nil); err == nil {
			t.Fatalf("FetchRecordInto(%+v) = %d bytes, want an error", rid, len(rec))
		}
	}
	if n := h.Pool().PinnedPages(); n != 0 {
		t.Fatalf("%d pages still pinned after the failed fetches", n)
	}
}

func TestPageRejectsEmptyRecord(t *testing.T) {
	var p Page
	InitPage(&p)
	if _, err := p.InsertRecord(nil); err == nil {
		t.Fatal("expected error for empty record")
	}
}

func TestPageFillsAndErrs(t *testing.T) {
	var p Page
	InitPage(&p)
	rec := bytes.Repeat([]byte{7}, 100)
	inserted := 0
	for {
		if _, err := p.InsertRecord(rec); err != nil {
			if err != ErrPageFull {
				t.Fatalf("unexpected error %v", err)
			}
			break
		}
		inserted++
	}
	// 100-byte records + 4-byte slots: expect close to 8188/104 ≈ 78.
	if inserted < 70 || inserted > 80 {
		t.Fatalf("inserted %d records", inserted)
	}
	// All still readable.
	for s := 0; s < inserted; s++ {
		if r, ok := p.Record(s); !ok || len(r) != 100 {
			t.Fatalf("slot %d unreadable after fill", s)
		}
	}
}

// Property: any sequence of variable-length inserts is fully recoverable in
// order, as long as the page accepts them.
func TestPageInsertReadProperty(t *testing.T) {
	f := func(sizes []uint8) bool {
		var p Page
		InitPage(&p)
		var want [][]byte
		for i, sz := range sizes {
			n := int(sz)%200 + 1
			rec := bytes.Repeat([]byte{byte(i)}, n)
			if _, err := p.InsertRecord(rec); err != nil {
				break
			}
			want = append(want, rec)
		}
		for s, rec := range want {
			got, ok := p.Record(s)
			if !ok || !bytes.Equal(got, rec) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func tempHeap(t *testing.T, frames int) *HeapFile {
	t.Helper()
	h, err := CreateHeapFile(filepath.Join(t.TempDir(), "t.heap"), frames)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { h.Close() })
	return h
}

func TestHeapFileAppendScan(t *testing.T) {
	h := tempHeap(t, 8)
	for i := 0; i < 1000; i++ {
		if err := h.Append([]byte(fmt.Sprintf("record-%04d", i))); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	err := h.Scan(func(rec []byte) error {
		want := fmt.Sprintf("record-%04d", i)
		if string(rec) != want {
			return fmt.Errorf("at %d got %q", i, rec)
		}
		i++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if i != 1000 {
		t.Fatalf("scanned %d", i)
	}
}

func TestHeapFileSurvivesEviction(t *testing.T) {
	// Pool of 2 frames forces constant eviction; data must still be intact.
	h := tempHeap(t, 2)
	rec := bytes.Repeat([]byte{9}, 1000) // ~8 records per page
	const n = 500
	for i := 0; i < n; i++ {
		rec[0] = byte(i)
		if err := h.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if h.NumPages() < 50 {
		t.Fatalf("expected many pages, got %d", h.NumPages())
	}
	count := 0
	if err := h.Scan(func(r []byte) error {
		if r[0] != byte(count) {
			return fmt.Errorf("record %d corrupted", count)
		}
		count++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if count != n {
		t.Fatalf("scanned %d of %d", count, n)
	}
	if h.Pool().Evictions.Load() == 0 {
		t.Fatal("test should have exercised eviction")
	}
}

func TestHeapFileScanEarlyStop(t *testing.T) {
	h := tempHeap(t, 4)
	for i := 0; i < 10; i++ {
		h.Append([]byte{byte(i)})
	}
	stop := fmt.Errorf("stop")
	seen := 0
	err := h.Scan(func(rec []byte) error {
		seen++
		if seen == 3 {
			return stop
		}
		return nil
	})
	if err != stop || seen != 3 {
		t.Fatalf("err=%v seen=%d", err, seen)
	}
}

func TestHeapFileRejectsHugeRecord(t *testing.T) {
	h := tempHeap(t, 2)
	if err := h.Append(make([]byte, PageSize)); err == nil {
		t.Fatal("expected error for oversized record")
	}
}

func TestHeapFilePersistsAcrossFlush(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.heap")
	h, err := CreateHeapFile(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		h.Append([]byte{byte(i), byte(i >> 8)})
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size()%PageSize != 0 || st.Size() == 0 {
		t.Fatalf("file size %d not page aligned", st.Size())
	}
}

func TestBufferPoolStats(t *testing.T) {
	h := tempHeap(t, 4)
	for i := 0; i < 50; i++ {
		h.Append(bytes.Repeat([]byte{1}, 500))
	}
	h.Scan(func([]byte) error { return nil })
	pool := h.Pool()
	if pool.Hits.Load() == 0 || pool.Hits.Load()+pool.Misses.Load() == 0 {
		t.Fatalf("stats not tracked: hits=%d misses=%d", pool.Hits.Load(), pool.Misses.Load())
	}
}

func TestBufferPoolExhaustion(t *testing.T) {
	f, err := os.Create(filepath.Join(t.TempDir(), "p"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	bp := NewBufferPool(f, 1)
	_, n1, err := bp.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	// Page n1 still pinned: allocating another must fail.
	if _, _, err := bp.NewPage(); err != ErrPoolExhausted {
		t.Fatalf("want ErrPoolExhausted, got %v", err)
	}
	bp.Unpin(n1, true)
	if _, _, err := bp.NewPage(); err != nil {
		t.Fatalf("after unpin: %v", err)
	}
}

// The scan path must not allocate per page: evicted frames recycle through
// the buffer pool's freelist, so a cursor sweep over a table much larger
// than the pool runs allocation-free once the pool is warm.
func TestCursorScanDoesNotAllocatePerPage(t *testing.T) {
	h := tempHeap(t, 4) // tiny pool: the 100+-page scan evicts constantly
	rec := bytes.Repeat([]byte{7}, 900)
	for i := 0; i < 1000; i++ {
		if err := h.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if h.NumPages() < 20 {
		t.Fatalf("want a multi-page file, got %d pages", h.NumPages())
	}
	scan := func() {
		cur := h.NewCursor()
		n := 0
		for {
			_, ok, err := cur.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			n++
		}
		cur.Close()
		if n != 1000 {
			t.Fatalf("scanned %d records", n)
		}
	}
	scan() // warm the pool and freelist
	perScan := testing.AllocsPerRun(10, scan)
	// One cursor struct per scan is fine; per-page frame churn (100+ pages ×
	// 8 KiB) is not.
	if perScan > 5 {
		t.Fatalf("scan allocates %.0f objects; frames are not being reused", perScan)
	}
}
