package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"github.com/genbase/genbase/internal/datagen"
)

// fuzzRecord derives a well-formed record from fuzz bytes, so the fuzzer
// exercises the encoder on arbitrary shapes, not just the parser on noise.
func fuzzRecord(data []byte) Record {
	if len(data) == 0 {
		return Record{Type: RecRow}
	}
	kind := data[0]
	data = data[1:]
	u64 := func(i int) uint64 {
		var b [8]byte
		copy(b[:], data[min(i, len(data)):])
		return binary.LittleEndian.Uint64(b[:])
	}
	if kind%2 == 0 {
		rec := Record{Type: RecRow, Row: Row{Patient: datagen.Patient{
			ID:           int32(u64(0)),
			Age:          int32(u64(2)),
			Gender:       byte(u64(4)),
			Zipcode:      int32(u64(5)),
			DiseaseID:    int32(u64(7)),
			DrugResponse: math.Float64frombits(u64(9)), // arbitrary bits incl. NaN payloads
		}}}
		n := len(data) / 8
		rec.Row.Expr = make([]float64, n)
		for i := range rec.Row.Expr {
			rec.Row.Expr[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		return rec
	}
	rec := Record{Type: RecCheckpoint, Checkpoint: Checkpoint{Epoch: u64(0), Rows: u64(8)}}
	copy(rec.Checkpoint.Digest[:], data)
	return rec
}

// FuzzWALRecord checks the WAL codec contract on arbitrary inputs:
// parse⇄encode is a fixed point, and parsing arbitrary bytes returns a typed
// ErrCorrupt — never a panic, never a silent partial record.
func FuzzWALRecord(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0})                                  // minimal row
	f.Add([]byte{1, 1, 0, 0, 0, 0, 0, 0, 0, 42})      // checkpoint, epoch 1
	f.Add(sampleRow(3).AppendEncoded(nil))            // valid wire bytes
	f.Add(sampleCheckpoint().AppendEncoded(nil))      // valid checkpoint frame
	f.Add(sampleRow(2).AppendEncoded(nil)[:11])       // torn mid-body
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0}) // huge declared length
	f.Fuzz(func(t *testing.T, data []byte) {
		// Arbitrary bytes through the parser: a typed error or a clean
		// record whose consumed bytes re-encode identically.
		if rec, n, err := ParseRecord(data); err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("parse error is not ErrCorrupt: %v", err)
			}
		} else {
			if n < headerSize || n > len(data) {
				t.Fatalf("parse consumed %d of %d bytes", n, len(data))
			}
			if re := rec.AppendEncoded(nil); !bytes.Equal(re, data[:n]) {
				t.Fatalf("parse⇄encode not a fixed point:\n in  %x\n out %x", data[:n], re)
			}
		}

		// Scan never panics and returns a prefix it fully parsed.
		clean, err := Scan(data, nil)
		if err != nil || clean < 0 || clean > len(data) {
			t.Fatalf("scan: clean %d, err %v", clean, err)
		}

		// Derived record through the encoder: encode⇄parse round-trips to
		// the same bytes, and the frame self-describes its length.
		rec := fuzzRecord(data)
		enc := rec.AppendEncoded(nil)
		got, n, err := ParseRecord(enc)
		if err != nil {
			t.Fatalf("parse of own encoding: %v", err)
		}
		if n != len(enc) {
			t.Fatalf("own encoding: consumed %d of %d", n, len(enc))
		}
		if re := got.AppendEncoded(nil); !bytes.Equal(re, enc) {
			t.Fatalf("own encoding not a fixed point:\n enc %x\n re  %x", enc, re)
		}
	})
}
