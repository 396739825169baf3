package storage

import (
	"fmt"
	"os"
	"path/filepath"
)

// HeapFile is an append-oriented record file backed by slotted pages through
// a buffer pool. Each relational table in the row store is one heap file.
//
// Concurrency: the read paths (FetchRecordInto, Scan, cursors)
// are safe to use from any number of goroutines once loading is done — they
// share the goroutine-safe buffer pool and touch no heap-file state. Append
// is single-writer: the load phase runs it from one goroutine (DESIGN.md
// §11).
type HeapFile struct {
	path     string
	file     *os.File
	pool     *BufferPool
	numPages int64
	lastPage int64 // page currently receiving inserts, −1 if none
	lastSlot int   // slot of the most recent insert
}

// CreateHeapFile makes (or truncates) a heap file at path.
func CreateHeapFile(path string, poolFrames int) (*HeapFile, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	return &HeapFile{path: path, file: f, pool: NewBufferPool(f, poolFrames), lastPage: -1}, nil
}

// Close flushes and closes the underlying file.
func (h *HeapFile) Close() error {
	if err := h.pool.FlushAll(); err != nil {
		h.file.Close()
		return err
	}
	return h.file.Close()
}

// Remove closes and deletes the file (test/bench cleanup).
func (h *HeapFile) Remove() error {
	if err := h.Close(); err != nil {
		os.Remove(h.path)
		return err
	}
	return os.Remove(h.path)
}

// NumPages returns the number of allocated pages.
func (h *HeapFile) NumPages() int64 { return h.numPages }

// Pool exposes buffer-pool statistics for the ablation benches and the
// pin-leak detector.
func (h *HeapFile) Pool() *BufferPool { return h.pool }

// RID locates one record in a heap file.
type RID struct {
	Page int64
	Slot int
}

// Less orders RIDs in physical file order (for bitmap-style index scans).
func (r RID) Less(o RID) bool {
	if r.Page != o.Page {
		return r.Page < o.Page
	}
	return r.Slot < o.Slot
}

// AppendLocated inserts a record and returns where it landed, for index
// construction.
func (h *HeapFile) AppendLocated(record []byte) (RID, error) {
	if err := h.Append(record); err != nil {
		return RID{}, err
	}
	return RID{Page: h.lastPage, Slot: h.lastSlot}, nil
}

// FetchRecordInto reads one record by locator through the buffer pool into
// a caller buffer; the result aliases buf's storage when capacity suffices.
func (h *HeapFile) FetchRecordInto(rid RID, buf []byte) ([]byte, error) {
	p, err := h.pool.FetchPage(rid.Page)
	if err != nil {
		return nil, err
	}
	rec, ok := p.Record(rid.Slot)
	if !ok {
		h.pool.Unpin(rid.Page, false)
		return nil, fmt.Errorf("storage: no record at page %d slot %d", rid.Page, rid.Slot)
	}
	buf = append(buf[:0], rec...)
	return buf, h.pool.Unpin(rid.Page, false)
}

// Append inserts a record, allocating a new page when the current one fills.
// Single-writer: callers append from one goroutine (the load phase).
func (h *HeapFile) Append(record []byte) error {
	if len(record) > PageSize-16 {
		return fmt.Errorf("storage: record of %d bytes exceeds page capacity", len(record))
	}
	if h.lastPage >= 0 {
		p, err := h.pool.FetchPage(h.lastPage)
		if err != nil {
			return err
		}
		if slot, err := p.InsertRecord(record); err == nil {
			if err := h.pool.Unpin(h.lastPage, true); err != nil {
				return err
			}
			h.lastSlot = slot
			return nil
		}
		if err := h.pool.Unpin(h.lastPage, false); err != nil {
			return err
		}
	}
	p, pageNum, err := h.pool.NewPage()
	if err != nil {
		return err
	}
	slot, err := p.InsertRecord(record)
	if err != nil {
		h.pool.Unpin(pageNum, false)
		return err
	}
	if err := h.pool.Unpin(pageNum, true); err != nil {
		return err
	}
	h.lastPage = pageNum
	h.lastSlot = slot
	h.numPages = pageNum + 1
	return nil
}

// Scan calls fn for every record in file order. The byte slice passed to
// fn aliases buffer-pool memory and is only valid during the call.
func (h *HeapFile) Scan(fn func(record []byte) error) error {
	for pageNum := int64(0); pageNum < h.numPages; pageNum++ {
		p, err := h.pool.FetchPage(pageNum)
		if err != nil {
			return err
		}
		n := p.NumSlots()
		for s := 0; s < n; s++ {
			rec, _ := p.Record(s)
			if err := fn(rec); err != nil {
				h.pool.Unpin(pageNum, false)
				return err
			}
		}
		if err := h.pool.Unpin(pageNum, false); err != nil {
			return err
		}
	}
	return nil
}
