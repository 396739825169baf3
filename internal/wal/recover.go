package wal

import (
	"fmt"
	"os"
	"time"
)

// RecoveryTiming is the accounting of one recovery replay, kept separate from
// the serve path's engine.Timing phases: replay work happens before serving
// starts (or beside it, on a fresh store) and must never fold into a query's
// data-management time — the double-count trap the StopWatch rework in
// DESIGN.md §11 closed for queries, closed here for recovery. It is a
// side-effect-free read: Store.Recovery returns a copy, reading it twice
// returns identical values.
type RecoveryTiming struct {
	// Replay is the wall-clock time spent scanning the log, rebuilding the
	// delta, and re-folding + verifying every checkpointed segment.
	Replay time.Duration
	// Records is the number of clean records replayed.
	Records int
	// Checkpoints is the number of checkpoint records among them (= the
	// recovered epoch).
	Checkpoints int
	// BytesReplayed is the clean prefix length.
	BytesReplayed int64
	// BytesDiscarded is the torn tail repaired away: bytes past the last
	// clean record (a partially written record, or sector-zeroed garbage),
	// truncated from the file on open.
	BytesDiscarded int64
}

// Scan parses records from the head of b until the bytes stop being a
// well-formed record, calling fn for each clean record in order. It returns
// the clean prefix length: the first corrupt or truncated record is the torn
// write marking the end of the log, and everything from it on is discarded —
// scan itself never returns ErrCorrupt. A non-nil error from fn aborts the
// scan and is returned as-is (with the offset of the record that produced
// it).
//
// Treating any invalid suffix as end-of-log is what makes recovery converge
// at every truncation point: validity of a prefix is decided by the prefix
// alone, so two replays that see the same clean bytes rebuild the same
// state, wherever the crash landed (crash_test.go walks every byte
// boundary).
func Scan(b []byte, fn func(Record) error) (int, error) {
	off := 0
	for off < len(b) {
		rec, n, err := ParseRecord(b[off:])
		if err != nil {
			break // torn tail: clean prefix ends here
		}
		if fn != nil {
			if err := fn(rec); err != nil {
				return off, fmt.Errorf("wal: replay at offset %d: %w", off, err)
			}
		}
		off += n
	}
	return off, nil
}

// recoverFile reads the log at path, replays its clean prefix through fn,
// and repairs the file by truncating the torn tail, so the reopened log
// appends after the last clean record instead of interleaving with garbage.
// It returns the clean length and replay statistics (Replay time is filled in
// by the caller, which owns the clock).
func recoverFile(path string, fn func(Record) error) (int64, RecoveryTiming, error) {
	var rt RecoveryTiming
	raw, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, rt, nil // fresh store: no log yet
		}
		return 0, rt, err
	}
	clean, err := Scan(raw, func(rec Record) error {
		rt.Records++
		if rec.Type == RecCheckpoint {
			rt.Checkpoints++
		}
		return fn(rec)
	})
	if err != nil {
		return 0, rt, err
	}
	rt.BytesReplayed = int64(clean)
	rt.BytesDiscarded = int64(len(raw) - clean)
	if rt.BytesDiscarded > 0 {
		if err := os.Truncate(path, int64(clean)); err != nil {
			return 0, rt, fmt.Errorf("wal: repair torn tail: %w", err)
		}
	}
	return int64(clean), rt, nil
}
