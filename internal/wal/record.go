// Package wal is the write path of the storage layer (DESIGN.md §18): an
// append-only, CRC-framed write-ahead log plus an MVCC ingest store on top of
// it. New patients (with their expression rows) land in the WAL and an
// in-memory delta; Checkpoint folds the delta into an immutable
// colpage-encoded segment persisted under the storage layer's page frames and
// advances the snapshot epoch. Every query executes against a pinned snapshot
// epoch, so answers stay a pure function of (snapshot, shard partition) while
// ingest runs — the serving tier re-keys its result cache by epoch instead of
// evicting on write.
//
// Recovery replays the log from the beginning: appends rebuild the delta,
// each checkpoint record re-folds the delta into a segment whose bytes must
// hash to the digest the checkpoint record committed — replay converges to
// byte-identical segments regardless of where a crash landed, and the
// convergence is checked mechanically on every open (see the torn-write crash
// matrix in crash_test.go).
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"github.com/genbase/genbase/internal/datagen"
)

// Float values travel as raw IEEE bits so NaN payloads and signed zeros
// survive the log bit-exactly — the same discipline colpage's float codec
// follows.
func floatBits(v float64) uint64 { return math.Float64bits(v) }
func floatFrom(b uint64) float64 { return math.Float64frombits(b) }

// ErrCorrupt marks bytes that do not parse as a well-formed WAL record or
// segment: bad framing, a CRC mismatch, an unknown record type, or a payload
// whose declared and actual shapes disagree. Parsing arbitrary bytes returns
// this error — it never panics (FuzzWALRecord holds the line). During log
// scan, a corrupt record is the torn tail: everything before it is the clean
// prefix, everything from it on is discarded.
var ErrCorrupt = errors.New("wal: corrupt record")

// Record types.
const (
	// RecRow is one ingested patient: metadata plus the patient's full
	// expression row.
	RecRow byte = 1
	// RecCheckpoint commits the delta accumulated since the previous
	// checkpoint as one immutable segment, carrying the digest the re-folded
	// segment bytes must reproduce on replay.
	RecCheckpoint byte = 2
)

// DigestSize is the size of a segment digest (SHA-256).
const DigestSize = 32

// maxBody bounds a record body so a corrupted length field cannot drive a
// huge allocation (64 MiB covers an expression row of 8M genes, ~130× the
// xlarge preset).
const maxBody = 1 << 26

// headerSize is the fixed frame: u32 body length + u32 CRC32-C of the body.
const headerSize = 8

// Row is one ingested patient: the metadata tuple plus the expression row
// (one value per gene, in gene order).
type Row struct {
	Patient datagen.Patient
	Expr    []float64
}

// Checkpoint is the payload of a RecCheckpoint record.
type Checkpoint struct {
	// Epoch is the snapshot epoch this checkpoint creates (1 for the first
	// checkpoint; epoch 0 is the preloaded base).
	Epoch uint64
	// Rows is the number of delta rows folded into the segment.
	Rows uint64
	// Digest is the SHA-256 of the folded segment's canonical bytes. Replay
	// re-folds and must reproduce it exactly.
	Digest [DigestSize]byte
}

// Record is one WAL entry: exactly one of Row or Checkpoint is meaningful,
// selected by Type.
type Record struct {
	Type       byte
	Row        Row
	Checkpoint Checkpoint
}

// castagnoli is the CRC polynomial every record frame uses (hardware-
// accelerated on amd64/arm64, and the conventional choice for storage CRCs).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// rowBodyLen is the encoded body size of a RecRow with n expression values:
// type byte + id/age/zip/disease (4×i32) + gender (1) + drug response (f64
// bits) + u32 count + n×f64 bits.
func rowBodyLen(n int) int { return 1 + 4*4 + 1 + 8 + 4 + 8*n }

// checkpointBodyLen is the encoded body size of a RecCheckpoint: type byte +
// epoch + rows + digest.
const checkpointBodyLen = 1 + 8 + 8 + DigestSize

// AppendEncoded appends r's wire form to dst and returns the extended slice:
//
//	[u32 body length][u32 crc32c(body)][body = type byte + payload]
//
// The encoding is canonical — ParseRecord of the result returns a record
// that re-encodes to the identical bytes (the round-trip fixed point
// FuzzWALRecord pins).
func (r Record) AppendEncoded(dst []byte) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0) // frame, patched below
	dst = append(dst, r.Type)
	switch r.Type {
	case RecRow:
		p := r.Row.Patient
		dst = binary.LittleEndian.AppendUint32(dst, uint32(p.ID))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(p.Age))
		dst = append(dst, p.Gender)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(p.Zipcode))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(p.DiseaseID))
		dst = binary.LittleEndian.AppendUint64(dst, floatBits(p.DrugResponse))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(r.Row.Expr)))
		for _, v := range r.Row.Expr {
			dst = binary.LittleEndian.AppendUint64(dst, floatBits(v))
		}
	case RecCheckpoint:
		dst = binary.LittleEndian.AppendUint64(dst, r.Checkpoint.Epoch)
		dst = binary.LittleEndian.AppendUint64(dst, r.Checkpoint.Rows)
		dst = append(dst, r.Checkpoint.Digest[:]...)
	default:
		// Unknown types have no payload; they encode as a bare type byte and
		// are rejected by ParseRecord (the encoder is only ever handed
		// records this package built, but the fuzz harness constructs
		// arbitrary ones).
	}
	body := dst[start+headerSize:]
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(body)))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.Checksum(body, castagnoli))
	return dst
}

// ParseRecord parses one record from the head of b, returning the record and
// the number of bytes consumed. Any malformed input — short frame, body
// length out of bounds, truncated body, CRC mismatch, unknown type, payload
// shape disagreeing with the declared length — returns a typed ErrCorrupt
// and never panics. Parsing is strict: a valid record's consumed bytes
// re-encode to the identical byte string.
func ParseRecord(b []byte) (Record, int, error) {
	if len(b) < headerSize {
		return Record{}, 0, fmt.Errorf("%w: %d-byte frame, need %d", ErrCorrupt, len(b), headerSize)
	}
	n := int(binary.LittleEndian.Uint32(b))
	if n < 1 || n > maxBody {
		return Record{}, 0, fmt.Errorf("%w: body length %d outside [1,%d]", ErrCorrupt, n, maxBody)
	}
	if len(b) < headerSize+n {
		return Record{}, 0, fmt.Errorf("%w: truncated body (%d of %d bytes)", ErrCorrupt, len(b)-headerSize, n)
	}
	body := b[headerSize : headerSize+n]
	if got, want := crc32.Checksum(body, castagnoli), binary.LittleEndian.Uint32(b[4:]); got != want {
		return Record{}, 0, fmt.Errorf("%w: crc %08x != recorded %08x", ErrCorrupt, got, want)
	}
	rec := Record{Type: body[0]}
	payload := body[1:]
	switch rec.Type {
	case RecRow:
		if len(payload) < rowBodyLen(0)-1 {
			return Record{}, 0, fmt.Errorf("%w: row payload %d bytes, need %d", ErrCorrupt, len(payload), rowBodyLen(0)-1)
		}
		p := &rec.Row.Patient
		p.ID = int32(binary.LittleEndian.Uint32(payload))
		p.Age = int32(binary.LittleEndian.Uint32(payload[4:]))
		p.Gender = payload[8]
		p.Zipcode = int32(binary.LittleEndian.Uint32(payload[9:]))
		p.DiseaseID = int32(binary.LittleEndian.Uint32(payload[13:]))
		p.DrugResponse = floatFrom(binary.LittleEndian.Uint64(payload[17:]))
		exprN := int(binary.LittleEndian.Uint32(payload[25:]))
		if n != rowBodyLen(exprN) {
			return Record{}, 0, fmt.Errorf("%w: row declares %d expression values in a %d-byte body (want %d)",
				ErrCorrupt, exprN, n, rowBodyLen(exprN))
		}
		rec.Row.Expr = make([]float64, exprN)
		for i := range rec.Row.Expr {
			rec.Row.Expr[i] = floatFrom(binary.LittleEndian.Uint64(payload[29+8*i:]))
		}
	case RecCheckpoint:
		if n != checkpointBodyLen {
			return Record{}, 0, fmt.Errorf("%w: checkpoint body %d bytes, want %d", ErrCorrupt, n, checkpointBodyLen)
		}
		rec.Checkpoint.Epoch = binary.LittleEndian.Uint64(payload)
		rec.Checkpoint.Rows = binary.LittleEndian.Uint64(payload[8:])
		copy(rec.Checkpoint.Digest[:], payload[16:])
	default:
		return Record{}, 0, fmt.Errorf("%w: unknown record type %d", ErrCorrupt, rec.Type)
	}
	return rec, headerSize + n, nil
}
