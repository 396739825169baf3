package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"testing"

	"github.com/genbase/genbase/internal/datagen"
)

func crcOf(body []byte) uint32 { return crc32.Checksum(body, castagnoli) }

func sampleRow(n int) Record {
	expr := make([]float64, n)
	for i := range expr {
		expr[i] = float64(i) * 1.5
	}
	if n > 2 {
		expr[1] = math.Copysign(0, -1) // -0.0 must survive bit-exactly
		expr[2] = math.NaN()
	}
	return Record{Type: RecRow, Row: Row{
		Patient: datagen.Patient{ID: 42, Age: 63, Gender: 1, Zipcode: 12345, DiseaseID: 7, DrugResponse: 3.25},
		Expr:    expr,
	}}
}

func sampleCheckpoint() Record {
	cp := Checkpoint{Epoch: 3, Rows: 17}
	for i := range cp.Digest {
		cp.Digest[i] = byte(i * 7)
	}
	return Record{Type: RecCheckpoint, Checkpoint: cp}
}

func TestWALRecordRoundTrip(t *testing.T) {
	for _, rec := range []Record{sampleRow(0), sampleRow(1), sampleRow(8), sampleCheckpoint()} {
		enc := rec.AppendEncoded(nil)
		got, n, err := ParseRecord(enc)
		if err != nil {
			t.Fatalf("type %d: parse: %v", rec.Type, err)
		}
		if n != len(enc) {
			t.Fatalf("type %d: consumed %d of %d bytes", rec.Type, n, len(enc))
		}
		// Fixed point: the parsed record re-encodes to identical bytes (value
		// comparison would miss NaN payloads; bytes do not).
		if re := got.AppendEncoded(nil); !bytes.Equal(re, enc) {
			t.Fatalf("type %d: re-encode diverged\n enc %x\n re  %x", rec.Type, enc, re)
		}
	}
}

func TestWALRecordParseConsumesPrefix(t *testing.T) {
	var enc []byte
	recs := []Record{sampleRow(3), sampleCheckpoint(), sampleRow(0)}
	for _, r := range recs {
		enc = r.AppendEncoded(enc)
	}
	enc = append(enc, 0xde, 0xad) // trailing garbage after the clean records
	off := 0
	for i := range recs {
		_, n, err := ParseRecord(enc[off:])
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		off += n
	}
	if _, _, err := ParseRecord(enc[off:]); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("trailing garbage: got %v, want ErrCorrupt", err)
	}
}

func TestWALRecordCorruption(t *testing.T) {
	clean := sampleRow(4).AppendEncoded(nil)
	cases := map[string]func([]byte) []byte{
		"empty":          func(b []byte) []byte { return nil },
		"short frame":    func(b []byte) []byte { return b[:headerSize-1] },
		"truncated body": func(b []byte) []byte { return b[:len(b)-1] },
		"zero length": func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b, 0)
			return b
		},
		"huge length": func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b, maxBody+1)
			return b
		},
		"crc flip":  func(b []byte) []byte { b[4] ^= 0xff; return b },
		"body flip": func(b []byte) []byte { b[len(b)-1] ^= 1; return b },
		"unknown type": func(b []byte) []byte {
			// Re-frame a body with a bogus type so the CRC is valid.
			return Record{Type: 99}.AppendEncoded(nil)
		},
		"expr count lies": func(b []byte) []byte {
			// Declared expression count disagrees with the body length; CRC
			// is recomputed so only the shape check can reject it.
			binary.LittleEndian.PutUint32(b[headerSize+26:], 1000)
			binary.LittleEndian.PutUint32(b[4:], crcOf(b[headerSize:]))
			return b
		},
		"checkpoint short": func(b []byte) []byte {
			cp := sampleCheckpoint().AppendEncoded(nil)
			body := cp[headerSize : len(cp)-1]
			out := make([]byte, 0, len(cp))
			out = binary.LittleEndian.AppendUint32(out, uint32(len(body)))
			out = binary.LittleEndian.AppendUint32(out, crcOf(body))
			return append(out, body...)
		},
	}
	for name, mutate := range cases {
		b := mutate(append([]byte(nil), clean...))
		if _, _, err := ParseRecord(b); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: got %v, want ErrCorrupt", name, err)
		}
	}
}
