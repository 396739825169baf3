package wal

import (
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func openTestLog(t *testing.T) (*Log, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := openLog(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l, path
}

func TestWALLogAppendDurable(t *testing.T) {
	l, path := openTestLog(t)
	recs := []Record{sampleRow(2), sampleCheckpoint(), sampleRow(0)}
	want := 0
	for _, r := range recs {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
		want += len(r.AppendEncoded(nil))
		// Durable on return: the bytes are on disk, not just buffered.
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() != int64(want) || l.Size() != int64(want) {
			t.Fatalf("after append: file %d, log %d, want %d", fi.Size(), l.Size(), want)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got []Record
	clean, err := Scan(raw, func(r Record) error { got = append(got, r); return nil })
	if err != nil || clean != len(raw) {
		t.Fatalf("scan: clean %d of %d, err %v", clean, len(raw), err)
	}
	if len(got) != len(recs) {
		t.Fatalf("replayed %d records, wrote %d", len(got), len(recs))
	}
}

// TestWALLogGroupCommit holds the first batch leader inside fsync while more
// appenders enqueue, then asserts the followers were flushed together: more
// appends than syncs, and everything durable.
func TestWALLogGroupCommit(t *testing.T) {
	l, _ := openTestLog(t)
	gate := make(chan struct{})
	entered := make(chan struct{}, 8)
	var gateOnce sync.Once
	l.syncFn = func(f *os.File) error {
		entered <- struct{}{}
		gateOnce.Do(func() { <-gate }) // only the first sync blocks
		return f.Sync()
	}

	// Leader: its sync blocks on the gate.
	leaderDone := make(chan error, 1)
	go func() { leaderDone <- l.Append(sampleRow(1)) }()
	<-entered // leader is inside fsync; its record left pending

	// Followers enqueue while the leader is stuck.
	const followers = 5
	var wg sync.WaitGroup
	results := make(chan error, followers)
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results <- l.Append(sampleRow(2))
		}()
	}
	// Wait until all followers have enqueued (pending holds their bytes).
	wantPending := followers * len(sampleRow(2).AppendEncoded(nil))
	for deadline := time.Now().Add(5 * time.Second); l.pendingLen() < wantPending; {
		if time.Now().After(deadline) {
			t.Fatalf("followers never enqueued: pending %d, want %d", l.pendingLen(), wantPending)
		}
		time.Sleep(time.Millisecond)
	}

	close(gate)
	if err := <-leaderDone; err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	close(results)
	for err := range results {
		if err != nil {
			t.Fatal(err)
		}
	}
	if app, syncs := l.Appends.Load(), l.Syncs.Load(); syncs >= app {
		t.Fatalf("no batching: %d appends, %d syncs", app, syncs)
	}
	// All 5 followers flushed as one batch (the leader's own batch plus one).
	if b := l.Batches.Load(); b != 2 {
		t.Fatalf("batches = %d, want 2 (leader alone, then the follower batch)", b)
	}
	if l.pendingLen() != 0 {
		t.Fatalf("pending %d bytes after all appends durable", l.pendingLen())
	}
}

func TestWALLogSyncFailureIsSticky(t *testing.T) {
	l, _ := openTestLog(t)
	boom := errors.New("disk gone")
	l.syncFn = func(*os.File) error { return boom }
	if err := l.Append(sampleRow(1)); !errors.Is(err, boom) {
		t.Fatalf("first append: %v, want %v", err, boom)
	}
	// Restore the disk; the log must stay poisoned anyway.
	l.syncFn = (*os.File).Sync
	if err := l.Append(sampleRow(1)); !errors.Is(err, boom) {
		t.Fatalf("poisoned append: %v, want sticky %v", err, boom)
	}
}

func TestWALLogConcurrentAppendAllDurable(t *testing.T) {
	l, path := openTestLog(t)
	const goroutines, each = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := l.Append(sampleRow(g % 4)); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	clean, err := Scan(raw, func(Record) error { count++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if clean != len(raw) || count != goroutines*each {
		t.Fatalf("replayed %d records over %d clean of %d bytes, want %d records",
			count, clean, len(raw), goroutines*each)
	}
	if l.Syncs.Load() > l.Appends.Load() {
		t.Fatalf("%d syncs for %d appends", l.Syncs.Load(), l.Appends.Load())
	}
}
