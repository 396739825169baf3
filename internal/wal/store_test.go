package wal

import (
	"errors"
	"math"
	"os"
	"runtime/debug"
	"slices"
	"testing"

	"github.com/genbase/genbase/internal/datagen"
)

// testBase generates a small deterministic base dataset (25×25×10).
func testBase(t *testing.T) *datagen.Dataset {
	t.Helper()
	ds, err := datagen.Generate(datagen.Config{Size: datagen.Small, Scale: 0.1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func openTestStore(t *testing.T, dir string, base *datagen.Dataset) *Store {
	t.Helper()
	s, err := Open(dir, base)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func appendN(t *testing.T, s *Store, gen *RowGen, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := s.Append(gen.Next()); err != nil {
			t.Fatal(err)
		}
	}
}

func TestWALStoreAppendCheckpointSnapshot(t *testing.T) {
	base := testBase(t)
	s := openTestStore(t, t.TempDir(), base)
	if s.Epoch() != 0 {
		t.Fatalf("fresh store at epoch %d", s.Epoch())
	}
	sn0, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if sn0.Dataset != base {
		t.Fatal("epoch-0 snapshot is not the base dataset")
	}
	hash0 := sn0.Hash()

	gen := NewRowGen(base, 99)
	rows := make([]Row, 0, 12)
	for i := 0; i < 12; i++ {
		rows = append(rows, gen.Next())
	}
	for _, r := range rows {
		if err := s.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if s.DeltaRows() != 12 {
		t.Fatalf("delta %d rows, want 12", s.DeltaRows())
	}
	// Delta is invisible to snapshots until checkpoint.
	if sn, _ := s.Snapshot(); sn.Epoch != 0 || sn.Hash() != hash0 {
		t.Fatal("delta leaked into the epoch-0 snapshot")
	}

	epoch, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 1 || s.Epoch() != 1 || s.DeltaRows() != 0 {
		t.Fatalf("after checkpoint: epoch %d/%d, delta %d", epoch, s.Epoch(), s.DeltaRows())
	}
	// Empty-delta checkpoint is a no-op.
	if e, err := s.Checkpoint(); err != nil || e != 1 {
		t.Fatalf("no-op checkpoint: epoch %d, err %v", e, err)
	}

	sn1, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	d := sn1.Dataset
	if d.Dims.Patients != base.Dims.Patients+12 {
		t.Fatalf("epoch-1 snapshot has %d patients, want %d", d.Dims.Patients, base.Dims.Patients+12)
	}
	for i, r := range rows {
		at := base.Dims.Patients + i
		if d.Patients[at] != r.Patient {
			t.Fatalf("row %d: patient %+v, want %+v", i, d.Patients[at], r.Patient)
		}
		for j, v := range r.Expr {
			if math.Float64bits(d.Expression.Row(at)[j]) != math.Float64bits(v) {
				t.Fatalf("row %d gene %d: %v != %v", i, j, d.Expression.Row(at)[j], v)
			}
		}
	}
	// Base rows are untouched.
	for j, v := range base.Expression.Row(3) {
		if d.Expression.Row(3)[j] != v {
			t.Fatalf("base row mutated at gene %d", j)
		}
	}

	// A second batch advances to epoch 2 while epoch 1 stays materializable
	// and stable (serve-old-epoch-until-checkpoint depends on this).
	hash1 := sn1.Hash()
	appendN(t, s, gen, 5)
	if _, err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	again, err := s.SnapshotAt(1)
	if err != nil {
		t.Fatal(err)
	}
	if again.Hash() != hash1 {
		t.Fatal("epoch-1 snapshot changed after epoch 2 was checkpointed")
	}
	if _, err := s.SnapshotAt(3); err == nil {
		t.Fatal("snapshot beyond current epoch succeeded")
	}
}

func TestWALStoreRejectsMismatchedRow(t *testing.T) {
	base := testBase(t)
	s := openTestStore(t, t.TempDir(), base)
	if err := s.Append(Row{Expr: make([]float64, base.Dims.Genes+1)}); err == nil {
		t.Fatal("append with wrong gene count succeeded")
	}
}

func TestWALStoreRecoveryMatchesLive(t *testing.T) {
	base := testBase(t)
	dir := t.TempDir()
	s := openTestStore(t, dir, base)
	gen := NewRowGen(base, 5)
	appendN(t, s, gen, 10)
	if _, err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	appendN(t, s, gen, 6)
	if _, err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	appendN(t, s, gen, 3) // uncheckpointed tail survives recovery as delta
	liveDigest1, _ := s.SegmentDigest(1)
	liveDigest2, _ := s.SegmentDigest(2)
	liveSnap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	liveHash := liveSnap.Hash()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r := openTestStore(t, dir, base)
	if r.Epoch() != 2 || r.DeltaRows() != 3 {
		t.Fatalf("recovered epoch %d delta %d, want 2/3", r.Epoch(), r.DeltaRows())
	}
	for i, want := range [][DigestSize]byte{liveDigest1, liveDigest2} {
		got, err := r.SegmentDigest(uint64(i + 1))
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("segment %d digest diverged after recovery", i+1)
		}
	}
	rt := r.Recovery()
	if rt.Records != 21 || rt.Checkpoints != 2 || rt.BytesDiscarded != 0 {
		t.Fatalf("recovery accounting %+v, want 21 records / 2 checkpoints / 0 discarded", rt)
	}
	if rt.Replay <= 0 || rt.BytesReplayed <= 0 {
		t.Fatalf("recovery timing not populated: %+v", rt)
	}
	rs, err := r.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if rs.Hash() != liveHash {
		t.Fatal("recovered snapshot hash diverged from live store")
	}
	// Recovery is a side-effect-free read: serving a snapshot leaves it as
	// it was.
	if again := r.Recovery(); again != rt {
		t.Fatalf("Recovery() changed after serving: %+v -> %+v", rt, again)
	}
}

// A checkpoint whose fsync fails leaves a directory that reopens: the log is
// poisoned, so nothing is written after the failure, and every row whose
// Append was acknowledged comes back (in a segment or in the delta). Nothing
// fallible may run between enqueueing a checkpoint record and publishing its
// segment; a step that could fail there would leave the record pending while
// the rows stayed in the delta, and a later checkpoint would log the same
// epoch twice.
func TestWALStoreFailedCheckpointReopens(t *testing.T) {
	base := testBase(t)
	dir := t.TempDir()
	s, err := Open(dir, base)
	if err != nil {
		t.Fatal(err)
	}
	gen := NewRowGen(base, 17)
	appendN(t, s, gen, 7)
	if _, err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	appendN(t, s, gen, 5)
	acked := 12

	boom := errors.New("disk gone")
	s.log.syncFn = func(*os.File) error { return boom }
	if _, err := s.Checkpoint(); !errors.Is(err, boom) {
		t.Fatalf("checkpoint with a failing fsync: %v, want %v", err, boom)
	}
	// The poisoned store refuses everything after: an append and a second
	// checkpoint both fail, and neither reaches the file.
	if err := s.Append(gen.Next()); !errors.Is(err, boom) {
		t.Fatalf("append after a failed checkpoint: %v, want sticky %v", err, boom)
	}
	if _, err := s.Checkpoint(); !errors.Is(err, boom) {
		t.Fatalf("second checkpoint after poison: %v, want sticky %v", err, boom)
	}
	if err := s.Close(); !errors.Is(err, boom) {
		t.Fatalf("close of a poisoned store: %v, want sticky %v", err, boom)
	}

	r, err := Open(dir, base)
	if err != nil {
		t.Fatalf("reopen after a failed checkpoint: %v", err)
	}
	defer r.Close()
	sn, err := r.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if have := sn.Dataset.Dims.Patients - base.Dims.Patients + r.DeltaRows(); have < acked {
		t.Fatalf("%d acknowledged rows, %d recovered (epoch %d, delta %d)", acked, have, r.Epoch(), r.DeltaRows())
	}
}

// openFiles counts this process's open file descriptors, or -1 where
// /proc/self/fd is unavailable.
func openFiles() int {
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(fds)
}

// A store's directory holds its log and nothing else, and a store's life —
// appends, a checkpoint, a snapshot, a reopen — ends with every file it
// opened closed.
func TestWALStoreFilesFollowOpenAndClose(t *testing.T) {
	// With the collector off, no finalizer can close a leaked file for us.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	base := testBase(t)
	dir := t.TempDir()
	fdsBefore := openFiles()

	s, err := Open(dir, base)
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, s, NewRowGen(base, 23), 9)
	if _, err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir, base)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if !slices.Equal(names, []string{logFile}) {
		t.Fatalf("store directory holds %v, want only %s", names, logFile)
	}
	if fdsAfter := openFiles(); fdsAfter != fdsBefore {
		t.Fatalf("%d open files before Open, %d after the last Close", fdsBefore, fdsAfter)
	}
}

func TestWALStoreFoldDeterministic(t *testing.T) {
	base := testBase(t)
	var digests [][DigestSize]byte
	var hashes []string
	for i := 0; i < 2; i++ {
		s := openTestStore(t, t.TempDir(), base)
		appendN(t, s, NewRowGen(base, 42), 9)
		if _, err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		d, _ := s.SegmentDigest(1)
		digests = append(digests, d)
		sn, err := s.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		hashes = append(hashes, sn.Hash())
	}
	if digests[0] != digests[1] || hashes[0] != hashes[1] {
		t.Fatal("identical append streams folded to different segments")
	}
}
