package wal

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
)

// Log is the append-only write-ahead log file. Append is durable on return:
// the record has been written and fsynced before the call comes back. The
// durability cost amortizes across concurrent appenders by group commit —
// while one appender (the batch leader) is inside the write+fsync, later
// appenders enqueue into the pending buffer and wait; the next leader flushes
// the whole batch with a single write and a single fsync. The explicit fsync
// points are exactly the flush boundaries: nothing is acknowledged before its
// batch's sync returns, and nothing is synced twice.
//
// The log is safe for concurrent Append from any number of goroutines. A
// write or sync failure is sticky: it poisons the log and fails every
// in-flight and subsequent Append, because a WAL that cannot promise
// durability must stop acknowledging.
type Log struct {
	mu       sync.Mutex
	f        *os.File
	pending  []byte // encoded records not yet written
	seq      uint64 // last sequence number assigned to an enqueued record
	durable  uint64 // highest sequence made durable
	flushing bool
	flushed  *sync.Cond
	size     int64 // durable file length in bytes
	err      error // sticky write/sync failure

	// syncFn is the fsync implementation — a field so tests can interpose a
	// gate that holds a batch leader inside the sync while followers pile up,
	// making the group-commit batching assertion deterministic.
	syncFn func(*os.File) error

	// Stats: appended records, physical fsyncs, and flushed batches. With
	// concurrency, Syncs < Appends is group commit working.
	Appends, Syncs, Batches atomic.Int64
}

// openLog opens (creating if needed) the log file at path for appending,
// trusting size as the clean durable length (recovery truncates the torn
// tail before handing the file over).
func openLog(path string, size int64) (*Log, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	l := &Log{f: f, size: size, syncFn: (*os.File).Sync}
	l.flushed = sync.NewCond(&l.mu)
	return l, nil
}

// enqueue appends rec's encoding to the pending buffer and returns its
// sequence number before the record is durable. Store.Append uses the
// enqueue/waitDurable split so WAL order and delta order are assigned under
// one lock while the fsync wait stays concurrent (that concurrency is what
// group commit batches).
func (l *Log) enqueue(rec Record) uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.pending = rec.AppendEncoded(l.pending)
	l.seq++
	l.Appends.Add(1)
	return l.seq
}

// waitDurable blocks until every record up to seq is on disk (or the log is
// poisoned). The first waiter to find the log idle becomes the batch leader:
// it takes the whole pending buffer, writes it at the durable tail, fsyncs,
// and wakes everyone.
func (l *Log) waitDurable(seq uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for {
		if l.err != nil {
			return l.err
		}
		if l.durable >= seq {
			return nil
		}
		if l.flushing {
			l.flushed.Wait()
			continue
		}
		// Become the leader for everything currently pending.
		batch := l.pending
		top := l.seq
		l.pending = nil
		l.flushing = true
		l.mu.Unlock()

		var err error
		if _, err = l.f.WriteAt(batch, l.size); err == nil {
			err = l.syncFn(l.f)
		}

		l.mu.Lock()
		l.flushing = false
		if err != nil {
			l.err = fmt.Errorf("wal: flush: %w", err)
		} else {
			l.size += int64(len(batch))
			l.durable = top
			l.Syncs.Add(1)
			l.Batches.Add(1)
		}
		l.flushed.Broadcast()
	}
}

// Append writes rec to the log and returns once it is durable (group-
// committed with any concurrent appends).
func (l *Log) Append(rec Record) error {
	return l.waitDurable(l.enqueue(rec))
}

// Size returns the durable length of the log in bytes.
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// pendingLen reports the un-flushed buffer length (test hook for the
// group-commit batching assertion).
func (l *Log) pendingLen() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.pending)
}

// Close flushes any pending records and closes the file. Append is durable
// on return, so pending is only nonempty if every appender of the final
// batch was abandoned mid-wait; flushing here keeps Close conservative.
func (l *Log) Close() error {
	l.mu.Lock()
	batch := l.pending
	l.pending = nil
	size := l.size
	err := l.err
	l.mu.Unlock()
	if err == nil && len(batch) > 0 {
		if _, err = l.f.WriteAt(batch, size); err == nil {
			err = l.syncFn(l.f)
		}
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}
