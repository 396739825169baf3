// Package storage implements the row store's disk substrate: 8 KiB slotted
// pages, heap files, and an LRU buffer pool. It mirrors the architecture of
// a conventional RDBMS storage manager (the paper's Postgres configuration):
// tuples are "stored in highly encoded form on storage blocks" and every
// access goes through the buffer pool.
package storage

import (
	"encoding/binary"
	"errors"
)

// PageSize is the fixed on-disk page size.
const PageSize = 8192

// Page layout:
//
//	[0:2)  uint16 numSlots
//	[2:4)  uint16 freeEnd — records grow downward from PageSize toward the
//	       slot array, which grows upward from byte 4.
//	[4:4+4*numSlots) slot array; each slot is uint16 offset + uint16 length.
type Page [PageSize]byte

const (
	pageHeaderSize = 4
	slotSize       = 4
)

// ErrPageFull is returned when a record does not fit in a page.
var ErrPageFull = errors.New("storage: page full")

// InitPage resets a page to empty.
func InitPage(p *Page) {
	binary.LittleEndian.PutUint16(p[0:], 0)
	binary.LittleEndian.PutUint16(p[2:], PageSize)
}

// NumSlots returns the slot count.
func (p *Page) NumSlots() int { return int(binary.LittleEndian.Uint16(p[0:])) }

func (p *Page) freeEnd() int { return int(binary.LittleEndian.Uint16(p[2:])) }

// FreeSpace returns the bytes available for one more record (including its
// slot entry).
func (p *Page) FreeSpace() int {
	free := p.freeEnd() - (pageHeaderSize + slotSize*p.NumSlots()) - slotSize
	if free < 0 {
		return 0
	}
	return free
}

// InsertRecord stores data and returns its slot index.
func (p *Page) InsertRecord(data []byte) (int, error) {
	if len(data) > p.FreeSpace() {
		return 0, ErrPageFull
	}
	if len(data) == 0 {
		return 0, errors.New("storage: empty record")
	}
	slot := p.NumSlots()
	newEnd := p.freeEnd() - len(data)
	copy(p[newEnd:], data)
	binary.LittleEndian.PutUint16(p[pageHeaderSize+slotSize*slot:], uint16(newEnd))
	binary.LittleEndian.PutUint16(p[pageHeaderSize+slotSize*slot+2:], uint16(len(data)))
	binary.LittleEndian.PutUint16(p[0:], uint16(slot+1))
	binary.LittleEndian.PutUint16(p[2:], uint16(newEnd))
	return slot, nil
}

// Record returns the bytes of the record in the given slot, or nil, false
// for a slot outside the page. The slice aliases the page; callers must not
// retain it across page evictions.
func (p *Page) Record(slot int) ([]byte, bool) {
	if slot < 0 || slot >= p.NumSlots() {
		return nil, false
	}
	off := int(binary.LittleEndian.Uint16(p[pageHeaderSize+slotSize*slot:]))
	ln := int(binary.LittleEndian.Uint16(p[pageHeaderSize+slotSize*slot+2:]))
	return p[off : off+ln], true
}
