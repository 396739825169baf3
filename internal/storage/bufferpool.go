package storage

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
)

// BufferPool caches pages of a single file with LRU replacement. It is the
// gatekeeper for all page access: engines fetch, use, and unpin; dirty pages
// are written back on eviction or flush.
//
// The pool is allocation-free in steady state: evicted frames recycle
// through a freelist and the LRU chain is intrusive (links live in the
// frames themselves), so a sequential scan of a table far larger than the
// pool — the cursor's access pattern — allocates nothing per page. Before
// this, every miss past capacity allocated a fresh 8 KiB frame plus an LRU
// node, which is exactly the scan-path churn the zero-copy work removes.
//
// # Concurrency
//
// The pool is safe for concurrent use (DESIGN.md §11). One mutex guards the
// frame map, the LRU chain, the freelist, pin counts, dirty bits, and page
// allocation; the miss-path disk read happens outside the lock under a
// per-frame loading flag so one slow read never serializes unrelated
// fetches, and concurrent misses on the same page coalesce onto a single
// read. Pin discipline is what keeps returned *Page pointers stable: a
// pinned frame is never evicted, so the bytes a caller holds between
// FetchPage and Unpin cannot be recycled under it. Stats are atomics,
// readable without the lock.
type BufferPool struct {
	file     *os.File
	capacity int

	mu     sync.Mutex
	frames map[int64]*frame
	// Intrusive LRU chain: lruHead is most recently used, lruTail least.
	lruHead, lruTail *frame
	// free holds evicted frames for reuse.
	free *frame
	// numPages is the file length in pages, tracked here so NewPage needs no
	// Stat/Truncate syscalls and two appenders cannot mint the same page
	// number. Eviction and flush extend the file via WriteAt.
	numPages int64
	// sizeErr poisons page allocation when the constructor could not learn
	// the file's size: minting page numbers from an unseeded counter over a
	// non-empty file would overwrite live pages.
	sizeErr error
	// loaded signals waiters when a loading frame settles (fill finished or
	// failed).
	loaded *sync.Cond

	// Stats for ablation benches and tests, and the invariant-violation
	// counter behind Unpin's error path.
	Hits, Misses, Evictions atomic.Int64
	// InvariantViolations counts pin-discipline breaches (unpinning a
	// non-resident page or unpinning more times than pinned). Any nonzero
	// value is a bug in a caller.
	InvariantViolations atomic.Int64
}

type frame struct {
	pageNum int64
	page    Page
	dirty   bool
	pins    int
	// loading marks a frame whose page bytes are still being read from disk;
	// it is resident in the map (so concurrent fetchers of the same page
	// wait instead of double-reading) but must not be returned yet.
	loading    bool
	prev, next *frame // LRU links while resident; next doubles as freelist link
}

// ErrPoolExhausted means every frame is pinned and nothing can be evicted.
var ErrPoolExhausted = errors.New("storage: buffer pool exhausted (all pages pinned)")

// NewBufferPool creates a pool over file with the given frame capacity. The
// current file size seeds the page-allocation counter.
func NewBufferPool(file *os.File, capacity int) *BufferPool {
	if capacity < 1 {
		capacity = 1
	}
	bp := &BufferPool{
		file:     file,
		capacity: capacity,
		frames:   make(map[int64]*frame, capacity),
	}
	bp.loaded = sync.NewCond(&bp.mu)
	if st, err := file.Stat(); err == nil {
		bp.numPages = st.Size() / PageSize
	} else {
		bp.sizeErr = fmt.Errorf("storage: stat for page numbering: %w", err)
	}
	return bp
}

// lruUnlink removes f from the LRU chain. Caller holds mu.
func (bp *BufferPool) lruUnlink(f *frame) {
	if f.prev != nil {
		f.prev.next = f.next
	} else {
		bp.lruHead = f.next
	}
	if f.next != nil {
		f.next.prev = f.prev
	} else {
		bp.lruTail = f.prev
	}
	f.prev, f.next = nil, nil
}

// lruPushFront marks f most recently used. Caller holds mu.
func (bp *BufferPool) lruPushFront(f *frame) {
	f.prev, f.next = nil, bp.lruHead
	if bp.lruHead != nil {
		bp.lruHead.prev = f
	}
	bp.lruHead = f
	if bp.lruTail == nil {
		bp.lruTail = f
	}
}

// FetchPage pins and returns the page. Callers must Unpin when done.
func (bp *BufferPool) FetchPage(pageNum int64) (*Page, error) {
	bp.mu.Lock()
	for {
		f, ok := bp.frames[pageNum]
		if !ok {
			break
		}
		if f.loading {
			// Another goroutine is reading this page; wait for it to settle
			// and re-check (the load may have failed and dropped the frame).
			bp.loaded.Wait()
			continue
		}
		f.pins++
		bp.lruUnlink(f)
		bp.lruPushFront(f)
		bp.mu.Unlock()
		bp.Hits.Add(1)
		return &f.page, nil
	}
	f, err := bp.allocFrame(pageNum)
	if err != nil {
		bp.mu.Unlock()
		return nil, err
	}
	f.loading = true
	bp.mu.Unlock()
	bp.Misses.Add(1)

	// Disk read outside the lock: the frame is pinned and marked loading, so
	// it cannot be evicted or handed to a concurrent fetcher mid-fill.
	_, rerr := bp.file.ReadAt(f.page[:], pageNum*PageSize)

	bp.mu.Lock()
	f.loading = false
	if rerr != nil {
		bp.dropFrame(f)
		bp.loaded.Broadcast()
		bp.mu.Unlock()
		return nil, fmt.Errorf("storage: read page %d: %w", pageNum, rerr)
	}
	bp.loaded.Broadcast()
	bp.mu.Unlock()
	return &f.page, nil
}

// NewPage appends a fresh zero page to the file, pins it, and returns it with
// its page number. Page numbers come from the pool's tracked file size, so
// concurrent appenders get distinct pages with no Stat/Truncate syscalls;
// the file itself grows when the page is first written back (WriteAt extends
// the file on eviction or flush).
func (bp *BufferPool) NewPage() (*Page, int64, error) {
	bp.mu.Lock()
	if bp.sizeErr != nil {
		bp.mu.Unlock()
		return nil, 0, bp.sizeErr
	}
	pageNum := bp.numPages
	f, err := bp.allocFrame(pageNum)
	if err != nil {
		bp.mu.Unlock()
		return nil, 0, err
	}
	bp.numPages = pageNum + 1
	// The frame may be recycled from the freelist: clear it so a fresh page
	// is all zeros on disk (InitPage resets only the header, and stale
	// record bytes from an evicted page must not leak into new pages).
	f.page = Page{}
	InitPage(&f.page)
	f.dirty = true
	bp.mu.Unlock()
	return &f.page, pageNum, nil
}

// NumPages returns the tracked file length in pages (allocated, though
// possibly not yet written back).
func (bp *BufferPool) NumPages() int64 {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	return bp.numPages
}

// PinnedPages returns the number of resident pages with a nonzero pin count
// — the pin-leak detector's probe: after a query finishes it must be zero.
// Test seam: rowstore's pin-leak tests (pinleak_test.go).
func (bp *BufferPool) PinnedPages() int {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	n := 0
	for _, f := range bp.frames {
		if f.pins > 0 {
			n++
		}
	}
	return n
}

// allocFrame reserves a frame for pageNum with one pin. Caller holds mu.
func (bp *BufferPool) allocFrame(pageNum int64) (*frame, error) {
	if len(bp.frames) >= bp.capacity {
		if err := bp.evictOne(); err != nil {
			return nil, err
		}
	}
	f := bp.free
	if f != nil {
		bp.free = f.next
		f.next = nil
		f.pageNum, f.pins, f.dirty, f.loading = pageNum, 1, false, false
	} else {
		f = &frame{pageNum: pageNum, pins: 1}
	}
	bp.lruPushFront(f)
	bp.frames[pageNum] = f
	return f, nil
}

// evictOne writes back and recycles the least recently used unpinned frame.
// Caller holds mu; the writeback happens under the lock, which is fine for
// the read-only serve path (clean evictions never touch the disk).
func (bp *BufferPool) evictOne() error {
	for f := bp.lruTail; f != nil; f = f.prev {
		if f.pins > 0 {
			continue
		}
		if f.dirty {
			if _, err := bp.file.WriteAt(f.page[:], f.pageNum*PageSize); err != nil {
				return err
			}
		}
		bp.Evictions.Add(1)
		bp.lruUnlink(f)
		delete(bp.frames, f.pageNum)
		f.next = bp.free
		bp.free = f
		return nil
	}
	return ErrPoolExhausted
}

// dropFrame removes a just-allocated frame after a failed fill and recycles
// it through the freelist. Caller holds mu.
func (bp *BufferPool) dropFrame(f *frame) {
	delete(bp.frames, f.pageNum)
	bp.lruUnlink(f)
	f.dirty = false
	f.next = bp.free
	bp.free = f
}

// Unpin releases a pin; dirty marks the page as modified. Unpinning a page
// that is not resident, or that has no outstanding pins, is a pin-discipline
// violation: it is counted, reported as an error, and — crucially — can no
// longer lose a dirty mark silently (the old code dropped both the unpin and
// the dirty bit on the floor, which under eviction races is silent data
// loss).
func (bp *BufferPool) Unpin(pageNum int64, dirty bool) error {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	f, ok := bp.frames[pageNum]
	if !ok {
		bp.InvariantViolations.Add(1)
		return fmt.Errorf("storage: unpin of non-resident page %d (dirty=%v): pin discipline violated", pageNum, dirty)
	}
	if f.pins <= 0 {
		bp.InvariantViolations.Add(1)
		return fmt.Errorf("storage: unpin of page %d with no outstanding pins", pageNum)
	}
	if dirty {
		f.dirty = true
	}
	f.pins--
	return nil
}

// FlushAll writes every dirty page back to the file.
func (bp *BufferPool) FlushAll() error {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	for _, f := range bp.frames {
		if f.dirty {
			if _, err := bp.file.WriteAt(f.page[:], f.pageNum*PageSize); err != nil {
				return err
			}
			f.dirty = false
		}
	}
	return nil
}
