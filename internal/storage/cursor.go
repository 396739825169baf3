package storage

// Cursor iterates a heap file record-at-a-time (the Volcano executor's
// access path). It keeps the current page pinned between records, unpinning
// when it advances to the next page or closes. A cursor belongs to one
// goroutine; any number of cursors may scan the same heap file concurrently
// (the buffer pool arbitrates).
type Cursor struct {
	h        *HeapFile
	pageNum  int64
	slot     int
	page     *Page
	finished bool
}

// NewCursor returns a cursor positioned before the first record.
func (h *HeapFile) NewCursor() *Cursor {
	return &Cursor{h: h, pageNum: -1}
}

// Next returns the next record. The returned slice aliases buffer-pool
// memory and is valid only until the next call to Next or Close.
func (c *Cursor) Next() ([]byte, bool, error) {
	if c.finished {
		return nil, false, nil
	}
	for {
		if c.page == nil {
			c.pageNum++
			if c.pageNum >= c.h.numPages {
				c.finished = true
				return nil, false, nil
			}
			p, err := c.h.pool.FetchPage(c.pageNum)
			if err != nil {
				c.finished = true
				return nil, false, err
			}
			c.page = p
			c.slot = 0
		}
		if c.slot < c.page.NumSlots() {
			rec, _ := c.page.Record(c.slot)
			c.slot++
			return rec, true, nil
		}
		if err := c.h.pool.Unpin(c.pageNum, false); err != nil {
			c.finished = true
			c.page = nil
			return nil, false, err
		}
		c.page = nil
	}
}

// Close releases any pinned page. Safe to call multiple times.
func (c *Cursor) Close() {
	if c.page != nil {
		c.h.pool.Unpin(c.pageNum, false)
		c.page = nil
	}
	c.finished = true
}
