package genbase

import (
	"context"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"github.com/genbase/genbase/internal/core"
	"github.com/genbase/genbase/internal/datagen"
	"github.com/genbase/genbase/internal/engine"
	"github.com/genbase/genbase/internal/wal"
)

// ingestQueries is the query mix the ingest invariance tests run: a
// regression, a covariance, and a GO-enrichment query cover the distinct
// kernel families without paying for the full six-query sweep per config.
var ingestQueries = []engine.QueryID{engine.Q1Regression, engine.Q2Covariance, engine.Q5Statistics}

// openFiles counts this process's open file descriptors, or -1 where
// /proc/self/fd is unavailable.
func openFiles() int {
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(fds)
}

// loadFleet loads every fleet configuration over ds and returns the engines
// aligned with the members.
func loadFleet(t *testing.T, fleet []core.FleetMember, ds *datagen.Dataset) []engine.Engine {
	t.Helper()
	engines := make([]engine.Engine, len(fleet))
	for i, m := range fleet {
		eng := m.New(t.TempDir())
		t.Cleanup(func() { eng.Close() })
		if err := eng.Load(ds); err != nil {
			t.Fatalf("%s: load: %v", m.Key, err)
		}
		engines[i] = eng
	}
	return engines
}

// TestIngestEpochPinnedInvariance is the concurrent ingest-vs-serve gate
// (run under -race in CI): while an ingest goroutine appends rows to the WAL
// store over the fleet's base dataset and folds checkpoints, every one of
// the 14 configurations keeps answering bit-identically to the committed
// per-class goldens — epoch-0 state is immutable under ingest, not merely
// mostly-untouched. After ingest lands, the epoch-2 snapshot is loaded into
// 14 fresh engines and their answers must again agree exactly within each
// answer-equivalence class: the new epoch is as deterministic as the old.
// Once every store and engine is closed, no goroutine the test started may
// remain, and no file it opened may stay open.
func TestIngestEpochPinnedInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet sweep is not short")
	}
	// With the collector off, no finalizer can close a leaked file for us.
	gcPercent := debug.SetGCPercent(-1)
	// Registered first, so it runs after every deferred Close and every
	// engine's cleanup.
	before, fdsBefore := runtime.NumGoroutine(), openFiles()
	t.Cleanup(func() {
		defer debug.SetGCPercent(gcPercent)
		for i := 0; i < 1000 && runtime.NumGoroutine() > before; i++ {
			runtime.Gosched()
		}
		if after := runtime.NumGoroutine(); after > before {
			t.Errorf("%d goroutines before the test, %d after it closed everything", before, after)
		}
		if after := openFiles(); after != fdsBefore {
			t.Errorf("%d open files before the test, %d after it closed everything", fdsBefore, after)
		}
	})
	ds, err := datagen.Generate(datagen.Config{Size: datagen.Small, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	store, err := wal.Open(dir, ds)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	fleet, err := core.FleetConfigs(2)
	if err != nil {
		t.Fatal(err)
	}
	engines := loadFleet(t, fleet, ds)
	want := loadGoldens(t)
	p := engine.DefaultParams()

	// Ingest runs for the whole query sweep: two checkpointed batches of 16
	// rows, exactly the stream a RowGen with this seed always produces.
	const batches, perBatch = 2, 16
	ingestDone := make(chan error, 1)
	go func() {
		gen := wal.NewRowGen(ds, 2026)
		for b := 0; b < batches; b++ {
			for i := 0; i < perBatch; i++ {
				if err := store.Append(gen.Next()); err != nil {
					ingestDone <- err
					return
				}
			}
			if _, err := store.Checkpoint(); err != nil {
				ingestDone <- err
				return
			}
		}
		ingestDone <- nil
	}()

	// Epoch-0 serving: every configuration, concurrently with the ingest
	// goroutine, must match the committed class goldens bit for bit.
	var wg sync.WaitGroup
	for i, m := range fleet {
		wg.Add(1)
		go func(m core.FleetMember, eng engine.Engine) {
			defer wg.Done()
			for _, q := range ingestQueries {
				if !eng.Supports(q) {
					continue
				}
				res, err := eng.Run(context.Background(), q, p)
				if err != nil {
					t.Errorf("%s %s: %v", m.Key, q, err)
					continue
				}
				if got, golden := goldenAnswerHash(t, res.Answer), want[classGoldenKey(m.Class, q)]; got != golden {
					t.Errorf("%s %s under ingest: answer hash %s != class golden %s", m.Key, q, got, golden)
				}
			}
		}(m, engines[i])
	}
	wg.Wait()
	if err := <-ingestDone; err != nil {
		t.Fatalf("ingest: %v", err)
	}
	if store.Epoch() != batches {
		t.Fatalf("epoch %d after %d checkpoints", store.Epoch(), batches)
	}

	// Epoch-2 determinism: fresh engines over the checkpointed snapshot must
	// agree exactly within each answer class.
	snap, err := store.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Dataset.Dims.Patients != ds.Dims.Patients+batches*perBatch {
		t.Fatalf("snapshot has %d patients, want %d", snap.Dataset.Dims.Patients, ds.Dims.Patients+batches*perBatch)
	}
	next := loadFleet(t, fleet, snap.Dataset)
	classHash := map[string]string{} // class/query → hash
	for i, m := range fleet {
		for _, q := range ingestQueries {
			if !next[i].Supports(q) {
				continue
			}
			res, err := next[i].Run(context.Background(), q, p)
			if err != nil {
				t.Fatalf("%s %s at epoch 2: %v", m.Key, q, err)
			}
			got := goldenAnswerHash(t, res.Answer)
			key := m.Class + "/" + q.String()
			if prev, ok := classHash[key]; !ok {
				classHash[key] = got
			} else if got != prev {
				t.Errorf("%s %s: epoch-2 answer diverges within class %s", m.Key, q, m.Class)
			}
		}
	}

	// Epoch-2 answers must also differ from epoch 0 for a query that reads
	// the patient dimension — if they didn't, the snapshot never actually
	// advanced and the "determinism" above proved nothing.
	if classHash[core.ClassDense+"/"+engine.Q1Regression.String()] == want[classGoldenKey(core.ClassDense, engine.Q1Regression)] {
		t.Error("epoch-2 Q1 answer identical to epoch-0 golden: ingest had no effect")
	}

	// Recovery stability: a store reopened from the WAL re-materializes a
	// snapshot whose engines answer with the same hashes.
	snapHash := snap.Hash()
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	recovered, err := wal.Open(dir, ds)
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	rsnap, err := recovered.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if rsnap.Hash() != snapHash {
		t.Fatal("recovered snapshot hash diverged from live snapshot")
	}
	denseIdx := -1
	for i, m := range fleet {
		if m.Class == core.ClassDense {
			denseIdx = i
			break
		}
	}
	eng := fleet[denseIdx].New(t.TempDir())
	defer eng.Close()
	if err := eng.Load(rsnap.Dataset); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(context.Background(), engine.Q1Regression, p)
	if err != nil {
		t.Fatal(err)
	}
	if got := goldenAnswerHash(t, res.Answer); got != classHash[core.ClassDense+"/"+engine.Q1Regression.String()] {
		t.Errorf("recovered-snapshot answer %s != live epoch-2 class hash", got)
	}
}
