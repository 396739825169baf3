package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"github.com/genbase/genbase/internal/core"
	"github.com/genbase/genbase/internal/datagen"
	"github.com/genbase/genbase/internal/engine"
	"github.com/genbase/genbase/internal/serve"
	"github.com/genbase/genbase/internal/wal"
)

// runCrashDrill is the crash-drill command: an end-to-end
// recovery-convergence drill on the serve path. It builds a WAL over the
// small preset (24 rows, a checkpoint, 8 more rows), then crashes it at a
// sweep of byte positions — every record boundary plus a stride through the
// torn tail — and for each crash image verifies that recovery converges:
// same epoch, same segment digest, same snapshot hash as the pre-crash
// state. A sample of recovered snapshots is then served at -nodes through
// the admission layer, and the answers must be bit-identical across every
// recovery point.
func runCrashDrill(args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("crash-drill", "", stderr)
	nodes := fs.Int("nodes", 4, "virtual-cluster size the recovered snapshots are served at")
	scale := fs.Float64("scale", 1.0, "dataset dimension multiplier")
	seed := fs.Uint64("seed", 1, "generator seed (data and ingested rows)")
	if err := noOperands(fs, args); err != nil {
		return err
	}
	if *nodes < 1 {
		return badUsage(fs, "-nodes must be at least 1")
	}
	fmt.Fprintln(stderr, "running WAL crash-recovery drill...")
	return crashDrill(context.Background(), stdout, *scale, *seed, *nodes)
}

func crashDrill(ctx context.Context, stdout io.Writer, scale float64, seed uint64, nodes int) error {
	ds, err := datagen.Generate(datagen.Config{Size: datagen.Small, Scale: scale, Seed: seed})
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp("", "genbase-crash-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	// Reference run: the state every crash image must converge back to.
	store, err := wal.Open(dir, ds)
	if err != nil {
		return err
	}
	gen := wal.NewRowGen(ds, seed)
	for i := 0; i < 24; i++ {
		if err := store.Append(gen.Next()); err != nil {
			return err
		}
	}
	if _, err := store.Checkpoint(); err != nil {
		return err
	}
	for i := 0; i < 8; i++ {
		if err := store.Append(gen.Next()); err != nil {
			return err
		}
	}
	digest1, err := store.SegmentDigest(1)
	if err != nil {
		return err
	}
	snap1, err := store.SnapshotAt(1)
	if err != nil {
		return err
	}
	goldenHash := snap1.Hash()
	if err := store.Close(); err != nil {
		return err
	}
	raw, err := os.ReadFile(dir + "/wal.log")
	if err != nil {
		return err
	}

	// Crash positions: every clean record boundary, plus a stride through
	// the bytes of the torn tail after the checkpoint.
	var cuts []int
	bound := 0
	for bound < len(raw) {
		_, n, perr := wal.ParseRecord(raw[bound:])
		if perr != nil {
			return fmt.Errorf("reference WAL corrupt: %w", perr)
		}
		bound += n
		cuts = append(cuts, bound)
	}
	lastStart := cuts[len(cuts)-2]
	for c := lastStart + 1; c < len(raw); c += 37 {
		cuts = append(cuts, c)
	}

	var convergedAt1, preCheckpoint int
	var sampleSnaps []*wal.Snapshot
	for i, cut := range cuts {
		cdir, err := os.MkdirTemp("", "genbase-crash-cut-*")
		if err != nil {
			return err
		}
		if err := os.WriteFile(cdir+"/wal.log", raw[:cut], 0o644); err != nil {
			os.RemoveAll(cdir)
			return err
		}
		s, err := wal.Open(cdir, ds)
		if err != nil {
			os.RemoveAll(cdir)
			return fmt.Errorf("recovery at byte %d: %w", cut, err)
		}
		if s.Epoch() == 0 {
			preCheckpoint++
		} else {
			d, err := s.SegmentDigest(1)
			if err != nil {
				s.Close()
				os.RemoveAll(cdir)
				return err
			}
			if d != digest1 {
				s.Close()
				os.RemoveAll(cdir)
				return fmt.Errorf("segment digest diverged at byte %d", cut)
			}
			sn, err := s.SnapshotAt(1)
			if err != nil {
				s.Close()
				os.RemoveAll(cdir)
				return err
			}
			if sn.Hash() != goldenHash {
				s.Close()
				os.RemoveAll(cdir)
				return fmt.Errorf("snapshot hash diverged at byte %d", cut)
			}
			convergedAt1++
			if len(sampleSnaps) < 3 && i%7 == 0 {
				sampleSnaps = append(sampleSnaps, sn)
			}
		}
		s.Close()
		os.RemoveAll(cdir)
	}
	if len(sampleSnaps) == 0 {
		sampleSnaps = append(sampleSnaps, snap1)
	}

	// Serve-path check: recovered snapshots at `nodes` answer bit-identically
	// through the admission layer, whichever crash point they came back from.
	cfg, err := core.ConfigByName("pbdr")
	if err != nil {
		return err
	}
	p := engine.DefaultParams()
	queries := []engine.QueryID{engine.Q1Regression, engine.Q2Covariance, engine.Q5Statistics}
	answers := map[engine.QueryID]string{}
	for i, sn := range append([]*wal.Snapshot{snap1}, sampleSnaps...) {
		eng := cfg.NewCluster(nodes)
		if err := eng.Load(sn.Dataset); err != nil {
			eng.Close()
			return err
		}
		srv := serve.New(eng, serve.Options{MaxConcurrent: 2})
		for _, q := range queries {
			res, _, err := srv.Run(ctx, q, p)
			if err != nil {
				eng.Close()
				return fmt.Errorf("serve %s at %d nodes: %w", q, nodes, err)
			}
			h := answerSHA(res.Answer)
			if prev, ok := answers[q]; !ok {
				answers[q] = h
			} else if h != prev {
				eng.Close()
				return fmt.Errorf("%s answer diverged between recovery points (snapshot %d)", q, i)
			}
		}
		eng.Close()
	}

	fmt.Fprintf(stdout, "crash drill — %s @ %d nodes (seed %d)\n", datagen.Small, nodes, seed)
	fmt.Fprintf(stdout, "%4d crash points: %d recovered to epoch 1 (digest+snapshot converged), %d to epoch 0 (pre-checkpoint)\n",
		len(cuts), convergedAt1, preCheckpoint)
	fmt.Fprintf(stdout, "%4d recovered snapshots served %d queries each through pbdr@%dn: all answers bit-identical\n",
		len(sampleSnaps)+1, len(queries), nodes)
	return nil
}

// answerSHA is the drill's bit-identity fingerprint of a query answer (the
// same JSON-marshal hashing the golden-answer tests use).
func answerSHA(answer any) string {
	blob, err := json.Marshal(answer)
	if err != nil {
		return "unhashable:" + err.Error()
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:8])
}
