package wal

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeRecords materializes a WAL containing exactly recs, bypassing Store.
func writeRecords(t *testing.T, recs ...Record) string {
	t.Helper()
	dir := t.TempDir()
	var buf []byte
	for _, r := range recs {
		buf = r.AppendEncoded(buf)
	}
	if err := os.WriteFile(filepath.Join(dir, logFile), buf, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestWALOpenRejectsSemanticCorruption: records that parse cleanly but lie
// about store state (wrong gene count, impossible checkpoint shape, a digest
// replay cannot reproduce) must fail Open with ErrCorrupt — recovery refuses
// to converge to a state the log does not actually describe.
func TestWALOpenRejectsSemanticCorruption(t *testing.T) {
	base := testBase(t)
	goodRow := NewRowGen(base, 1).Next()
	badDigestCP := Record{Type: RecCheckpoint, Checkpoint: Checkpoint{Epoch: 1, Rows: 1, Digest: [DigestSize]byte{0xbe, 0xef}}}
	cases := map[string][]Record{
		"row wrong gene count": {{Type: RecRow, Row: Row{Expr: make([]float64, base.Dims.Genes+2)}}},
		"checkpoint epoch skip": {
			{Type: RecRow, Row: goodRow},
			{Type: RecCheckpoint, Checkpoint: Checkpoint{Epoch: 5, Rows: 1}},
		},
		"checkpoint rows mismatch": {
			{Type: RecRow, Row: goodRow},
			{Type: RecCheckpoint, Checkpoint: Checkpoint{Epoch: 1, Rows: 7}},
		},
		"checkpoint digest mismatch": {
			{Type: RecRow, Row: goodRow},
			badDigestCP,
		},
	}
	for name, recs := range cases {
		dir := writeRecords(t, recs...)
		if _, err := Open(dir, base); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Open returned %v, want ErrCorrupt", name, err)
		}
	}
	if _, err := Open(t.TempDir(), nil); err == nil {
		t.Error("Open with nil base succeeded")
	}
	// A WAL path that is a directory: recovery propagates the read error.
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, logFile), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, base); err == nil {
		t.Error("Open over an unreadable log succeeded")
	}
}

func TestWALOpenLogBadPath(t *testing.T) {
	if _, err := openLog(filepath.Join(t.TempDir(), "missing", "wal.log"), 0); err == nil {
		t.Fatal("openLog into a missing directory succeeded")
	}
}

func TestWALEncodedLenUnknownType(t *testing.T) {
	r := Record{Type: 77}
	if got := r.EncodedLen(); got != len(r.AppendEncoded(nil)) {
		t.Fatalf("EncodedLen %d, encoded %d", got, len(r.AppendEncoded(nil)))
	}
}

func TestWALScanFnError(t *testing.T) {
	buf := sampleRow(1).AppendEncoded(nil)
	buf = sampleRow(2).AppendEncoded(buf)
	boom := errors.New("stop here")
	calls := 0
	off, err := Scan(buf, func(Record) error {
		calls++
		if calls == 2 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) || calls != 2 {
		t.Fatalf("scan: err %v after %d calls", err, calls)
	}
	if want := sampleRow(1).EncodedLen(); off != want {
		t.Fatalf("aborted scan reported offset %d, want %d", off, want)
	}
}

// TestWALParseSegmentCorruption drives the segment parser through every
// reject branch: each mutation of a valid blob must come back ErrCorrupt.
func TestWALParseSegmentCorruption(t *testing.T) {
	base := testBase(t)
	gen := NewRowGen(base, 3)
	rows := []Row{gen.Next(), gen.Next(), gen.Next()}
	seg := foldSegment(1, rows, base.Dims.Genes)
	blob := seg.Blob

	if got, err := parseSegment(blob, base.Dims.Genes); err != nil || len(got) != 3 {
		t.Fatalf("clean blob: %d rows, err %v", len(got), err)
	}

	mut := func(f func(b []byte) []byte) []byte {
		return f(append([]byte(nil), blob...))
	}
	cases := map[string][]byte{
		"short header": blob[:10],
		"bad magic":    mut(func(b []byte) []byte { b[0] = 'X'; return b }),
		"row count over cap": mut(func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[12:], 1<<30)
			return b
		}),
		"truncated page frame": blob[:len(blob)-1],
		"page length overflow": mut(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[28:], 1<<30)
			return b
		}),
		"trailing bytes": append(append([]byte(nil), blob...), 0),
		"garbage page": mut(func(b []byte) []byte {
			b[32] ^= 0xff // inside the first page's colpage header
			return b
		}),
	}
	for name, b := range cases {
		if _, err := parseSegment(b, base.Dims.Genes); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: got %v, want ErrCorrupt", name, err)
		}
	}
	if _, err := parseSegment(blob, base.Dims.Genes+1); !errors.Is(err, ErrCorrupt) {
		t.Errorf("gene mismatch: got %v, want ErrCorrupt", err)
	}
	// A column page that parses but holds the wrong number of values.
	short := foldSegment(1, rows[:2], base.Dims.Genes)
	spliced := append([]byte(nil), blob[:28]...)
	spliced = append(spliced, short.Blob[28:]...)
	if _, err := parseSegment(spliced, base.Dims.Genes); !errors.Is(err, ErrCorrupt) {
		t.Errorf("column length mismatch: got %v, want ErrCorrupt", err)
	}
	if !strings.Contains(ErrCorrupt.Error(), "corrupt") {
		t.Fatal("ErrCorrupt lost its message")
	}
}
