package wal

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"github.com/genbase/genbase/internal/colpage"
	"github.com/genbase/genbase/internal/datagen"
	"github.com/genbase/genbase/internal/linalg"
)

// Store is the MVCC ingest store over a preloaded base dataset: appended rows
// go to the WAL (group-committed) and an in-memory delta; Checkpoint folds
// the delta into an immutable colpage-encoded segment and advances the
// snapshot epoch. Checkpointed bytes live in two places only: the WAL, which
// is the durable source of truth, and the segment's resident Blob, which
// recovery rebuilds from it. SnapshotAt materializes the dataset as of any
// retained epoch: epoch 0 is the base, epoch k is the base plus the first k
// checkpointed segments, a pure function of (base, WAL prefix) that recovery
// reproduces byte-identically.
//
// Concurrency: Append is safe from any number of goroutines (WAL order and
// delta order are assigned under one lock; durability waits run concurrently
// so group commit batches them). Checkpoint excludes appends and snapshots
// for the fold itself. SnapshotAt runs concurrently with appends — the delta
// is invisible to snapshots, so an in-flight query pinned to epoch E never
// observes ingest (DESIGN.md §18).
type Store struct {
	base *datagen.Dataset
	log  *Log

	mu    sync.RWMutex
	delta []Row
	segs  []*Segment

	recovery RecoveryTiming
}

// Segment is one checkpointed, immutable fold of delta rows.
type Segment struct {
	// Epoch this segment's checkpoint created (segments are 1-indexed by
	// epoch; epoch 0 is the base dataset).
	Epoch uint64
	// Blob is the canonical colpage-encoded segment (see foldSegment).
	Blob []byte
	// Digest is sha256(Blob) — the value the checkpoint record committed.
	Digest [DigestSize]byte
}

// Rows decodes the segment's row count from its blob header.
func (s *Segment) Rows() int {
	return int(binary.LittleEndian.Uint64(s.Blob[12:]))
}

// logFile is the only file a store keeps in its directory.
const logFile = "wal.log"

// Open creates or recovers a store at dir over base. An existing WAL is
// replayed: row records rebuild the delta, each checkpoint record re-folds
// the delta into a segment and verifies the fold's digest against the one the
// record committed — a mismatch means replay did not converge and is
// reported, never ignored. The torn tail past the last clean record is
// truncated. The replayed segments stay resident; nothing else is written.
//
// Recovery accounting lands in Recovery(), not in any engine StopWatch.
func Open(dir string, base *datagen.Dataset) (*Store, error) {
	if base == nil {
		return nil, fmt.Errorf("wal: nil base dataset")
	}
	s := &Store{base: base}
	start := time.Now()
	logPath := filepath.Join(dir, logFile)
	clean, rt, err := recoverFile(logPath, s.replay)
	if err != nil {
		return nil, err
	}
	rt.Replay = time.Since(start)
	s.recovery = rt
	if s.log, err = openLog(logPath, clean); err != nil {
		return nil, err
	}
	return s, nil
}

// replay applies one clean WAL record during recovery.
func (s *Store) replay(rec Record) error {
	switch rec.Type {
	case RecRow:
		if len(rec.Row.Expr) != s.base.Dims.Genes {
			return fmt.Errorf("%w: row with %d expression values, dataset has %d genes",
				ErrCorrupt, len(rec.Row.Expr), s.base.Dims.Genes)
		}
		s.delta = append(s.delta, rec.Row)
	case RecCheckpoint:
		cp := rec.Checkpoint
		if cp.Epoch != uint64(len(s.segs)+1) {
			return fmt.Errorf("%w: checkpoint epoch %d after %d segments", ErrCorrupt, cp.Epoch, len(s.segs))
		}
		if cp.Rows != uint64(len(s.delta)) {
			return fmt.Errorf("%w: checkpoint folds %d rows, delta has %d", ErrCorrupt, cp.Rows, len(s.delta))
		}
		seg := foldSegment(cp.Epoch, s.delta, s.base.Dims.Genes)
		if seg.Digest != cp.Digest {
			return fmt.Errorf("%w: replayed segment %d digest %x diverges from committed %x",
				ErrCorrupt, cp.Epoch, seg.Digest, cp.Digest)
		}
		s.segs = append(s.segs, seg)
		s.delta = s.delta[:0:0]
	}
	return nil
}

// Close syncs and closes the WAL.
func (s *Store) Close() error { return s.log.Close() }

// Append ingests one row: durable in the WAL (group-committed with
// concurrent appends) and visible to the next Checkpoint, invisible to every
// snapshot until then.
func (s *Store) Append(row Row) error {
	if len(row.Expr) != s.base.Dims.Genes {
		return fmt.Errorf("wal: row with %d expression values, dataset has %d genes",
			len(row.Expr), s.base.Dims.Genes)
	}
	// WAL order and delta order are assigned under one lock so replay folds
	// rows in exactly the order the live store did — the digest check in
	// replay depends on it. The durability wait happens outside the lock,
	// which is what lets group commit batch concurrent appenders.
	s.mu.Lock()
	seq := s.log.enqueue(Record{Type: RecRow, Row: row})
	s.delta = append(s.delta, row)
	s.mu.Unlock()
	return s.log.waitDurable(seq)
}

// Checkpoint folds the delta into a new immutable segment, commits it with a
// digest-carrying checkpoint record (an explicit fsync point), and returns
// the new epoch. With an empty delta it is a no-op returning the current
// epoch.
//
// Nothing that can fail runs between enqueueing the record and publishing
// the segment, so the live store and the log never disagree about which
// rows an epoch holds: a failed fsync poisons the log (no later record is
// written) and reopening recovers whatever reached the file.
func (s *Store) Checkpoint() (uint64, error) {
	s.mu.Lock()
	if len(s.delta) == 0 {
		epoch := uint64(len(s.segs))
		s.mu.Unlock()
		return epoch, nil
	}
	seg := foldSegment(uint64(len(s.segs)+1), s.delta, s.base.Dims.Genes)
	seq := s.log.enqueue(Record{Type: RecCheckpoint, Checkpoint: Checkpoint{
		Epoch:  seg.Epoch,
		Rows:   uint64(seg.Rows()),
		Digest: seg.Digest,
	}})
	s.segs = append(s.segs, seg)
	s.delta = s.delta[:0:0]
	s.mu.Unlock()
	if err := s.log.waitDurable(seq); err != nil {
		return 0, err
	}
	return seg.Epoch, nil
}

// Epoch returns the current snapshot epoch (the number of checkpoints).
func (s *Store) Epoch() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return uint64(len(s.segs))
}

// DeltaRows returns the number of appended rows not yet checkpointed.
func (s *Store) DeltaRows() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.delta)
}

// SegmentDigest returns the committed digest of the segment that created
// epoch (1-indexed).
func (s *Store) SegmentDigest(epoch uint64) ([DigestSize]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if epoch < 1 || epoch > uint64(len(s.segs)) {
		return [DigestSize]byte{}, fmt.Errorf("wal: no segment for epoch %d (current epoch %d)", epoch, len(s.segs))
	}
	return s.segs[epoch-1].Digest, nil
}

// Recovery returns the replay accounting of the Open that built this store —
// a side-effect-free read, identical on every call.
func (s *Store) Recovery() RecoveryTiming { return s.recovery }

// PoolStats is buffer-pool traffic attributable to one accounting domain.
type PoolStats struct{ Hits, Misses int64 }

// ServePoolStats always returns zero: snapshots parse resident segments and
// touch no buffer pool. It is kept because the benchmark's ingest workload
// reports it.
func (s *Store) ServePoolStats() PoolStats { return PoolStats{} }

// Snapshot is a materialized dataset pinned to an epoch. The Dataset is
// freshly allocated where it differs from the base (expression matrix,
// patients); gene metadata and GO membership are shared with the base and
// remain read-only under the engine contract.
type Snapshot struct {
	Epoch   uint64
	Dataset *datagen.Dataset
}

// Snapshot materializes the current epoch.
func (s *Store) Snapshot() (*Snapshot, error) { return s.SnapshotAt(s.Epoch()) }

// SnapshotAt materializes the dataset as of epoch: the base plus the rows of
// the first `epoch` segments, parsed (and validated) from their resident
// blobs. It is a pure function of (base, epoch): two materializations — live
// or recovered — produce bit-identical datasets (Snapshot.Hash pins it).
func (s *Store) SnapshotAt(epoch uint64) (*Snapshot, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if epoch > uint64(len(s.segs)) {
		return nil, fmt.Errorf("wal: snapshot epoch %d beyond current epoch %d", epoch, len(s.segs))
	}
	if epoch == 0 {
		return &Snapshot{Epoch: 0, Dataset: s.base}, nil
	}
	var rows []Row
	for _, seg := range s.segs[:epoch] {
		segRows, err := parseSegment(seg.Blob, s.base.Dims.Genes)
		if err != nil {
			return nil, err
		}
		rows = append(rows, segRows...)
	}
	base := s.base
	d := &datagen.Dataset{
		Size: base.Size,
		Dims: datagen.Dims{
			Patients: base.Dims.Patients + len(rows),
			Genes:    base.Dims.Genes,
			GOTerms:  base.Dims.GOTerms,
		},
		Seed:           base.Seed,
		Expression:     linalg.NewMatrix(base.Dims.Patients+len(rows), base.Dims.Genes),
		Patients:       make([]datagen.Patient, 0, base.Dims.Patients+len(rows)),
		Genes:          base.Genes,
		GO:             base.GO,
		CausalGenes:    base.CausalGenes,
		EnrichedTerms:  base.EnrichedTerms,
		PlantedRowSets: base.PlantedRowSets,
		PlantedColSets: base.PlantedColSets,
	}
	for i := 0; i < base.Dims.Patients; i++ {
		copy(d.Expression.Row(i), base.Expression.Row(i))
	}
	d.Patients = append(d.Patients, base.Patients...)
	for i, row := range rows {
		copy(d.Expression.Row(base.Dims.Patients+i), row.Expr)
		d.Patients = append(d.Patients, row.Patient)
	}
	return &Snapshot{Epoch: epoch, Dataset: d}, nil
}

// Hash is the canonical SHA-256 of the snapshot's mutable state — dims,
// patient tuples, and the expression matrix as raw IEEE bits — the golden the
// crash matrix compares recovered snapshots against.
func (sn *Snapshot) Hash() string {
	h := sha256.New()
	var buf [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	d := sn.Dataset
	u64(sn.Epoch)
	u64(uint64(d.Dims.Patients))
	u64(uint64(d.Dims.Genes))
	u64(uint64(d.Dims.GOTerms))
	for _, p := range d.Patients {
		u64(uint64(uint32(p.ID))<<32 | uint64(uint32(p.Age)))
		u64(uint64(p.Gender)<<32 | uint64(uint32(p.DiseaseID)))
		u64(uint64(uint32(p.Zipcode)))
		u64(floatBits(p.DrugResponse))
	}
	for i := 0; i < d.Expression.Rows; i++ {
		for _, v := range d.Expression.Row(i) {
			u64(floatBits(v))
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// Segment blob layout (canonical — the digest is over these bytes):
//
//	magic "GBS1"
//	u64 epoch, u64 rows, u64 genes
//	6 metadata pages, each u32-length-prefixed:
//	  IntPage id, IntPage age, IntPage gender, IntPage zipcode,
//	  IntPage disease, FloatPage drug response
//	genes gene-column pages, each u32-length-prefixed:
//	  FloatPage of the column's values across the segment's rows
//
// Column pages reuse the colpage encodings (dict/RLE/packed chosen per
// column by serialized size), so a checkpointed segment is the same storage
// currency the read path's compressed scans use (DESIGN.md §15).
var segMagic = [4]byte{'G', 'B', 'S', '1'}

// foldSegment encodes rows into the canonical segment blob and digest. The
// fold is deterministic: same rows in the same order, same bytes.
func foldSegment(epoch uint64, rows []Row, genes int) *Segment {
	blob := make([]byte, 0, 1024+len(rows)*(64+8*genes)/4)
	blob = append(blob, segMagic[:]...)
	blob = binary.LittleEndian.AppendUint64(blob, epoch)
	blob = binary.LittleEndian.AppendUint64(blob, uint64(len(rows)))
	blob = binary.LittleEndian.AppendUint64(blob, uint64(genes))

	ints := make([]int64, len(rows))
	intCol := func(get func(datagen.Patient) int64) {
		for i, r := range rows {
			ints[i] = get(r.Patient)
		}
		page := colpage.BuildInt(ints).AppendEncoded(nil)
		blob = binary.LittleEndian.AppendUint32(blob, uint32(len(page)))
		blob = append(blob, page...)
	}
	intCol(func(p datagen.Patient) int64 { return int64(p.ID) })
	intCol(func(p datagen.Patient) int64 { return int64(p.Age) })
	intCol(func(p datagen.Patient) int64 { return int64(p.Gender) })
	intCol(func(p datagen.Patient) int64 { return int64(p.Zipcode) })
	intCol(func(p datagen.Patient) int64 { return int64(p.DiseaseID) })

	floats := make([]float64, len(rows))
	floatCol := func(get func(Row, int) float64, arg int) {
		for i, r := range rows {
			floats[i] = get(r, arg)
		}
		page := colpage.BuildFloat(floats).AppendEncoded(nil)
		blob = binary.LittleEndian.AppendUint32(blob, uint32(len(page)))
		blob = append(blob, page...)
	}
	floatCol(func(r Row, _ int) float64 { return r.Patient.DrugResponse }, 0)
	for g := 0; g < genes; g++ {
		floatCol(func(r Row, g int) float64 { return r.Expr[g] }, g)
	}
	return &Segment{Epoch: epoch, Blob: blob, Digest: sha256.Sum256(blob)}
}

// parseSegment decodes a segment blob back into rows, validating every frame
// (typed ErrCorrupt, never a panic — the blob normally comes from our own
// fold, but the parser does not assume it).
func parseSegment(blob []byte, wantGenes int) ([]Row, error) {
	if len(blob) < 4+24 {
		return nil, fmt.Errorf("%w: segment header %d bytes", ErrCorrupt, len(blob))
	}
	if [4]byte(blob[:4]) != segMagic {
		return nil, fmt.Errorf("%w: bad segment magic %q", ErrCorrupt, blob[:4])
	}
	n := int(binary.LittleEndian.Uint64(blob[12:]))
	genes := int(binary.LittleEndian.Uint64(blob[20:]))
	if genes != wantGenes {
		return nil, fmt.Errorf("%w: segment has %d genes, dataset has %d", ErrCorrupt, genes, wantGenes)
	}
	if n < 0 || n > 1<<24 {
		return nil, fmt.Errorf("%w: segment row count %d", ErrCorrupt, n)
	}
	rest := blob[28:]
	nextPage := func() ([]byte, error) {
		if len(rest) < 4 {
			return nil, fmt.Errorf("%w: truncated page frame", ErrCorrupt)
		}
		l := int(binary.LittleEndian.Uint32(rest))
		if l < 0 || 4+l > len(rest) {
			return nil, fmt.Errorf("%w: page length %d exceeds %d remaining", ErrCorrupt, l, len(rest)-4)
		}
		page := rest[4 : 4+l]
		rest = rest[4+l:]
		return page, nil
	}
	intCol := func() ([]int64, error) {
		page, err := nextPage()
		if err != nil {
			return nil, err
		}
		p, err := colpage.ParseInt(page)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		if p.Len() != n {
			return nil, fmt.Errorf("%w: int column of %d values in a %d-row segment", ErrCorrupt, p.Len(), n)
		}
		return p.AppendTo(nil), nil
	}
	floatCol := func() ([]float64, error) {
		page, err := nextPage()
		if err != nil {
			return nil, err
		}
		p, err := colpage.ParseFloat(page)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		if p.Len() != n {
			return nil, fmt.Errorf("%w: float column of %d values in a %d-row segment", ErrCorrupt, p.Len(), n)
		}
		return p.AppendTo(nil), nil
	}

	ids, err := intCol()
	if err != nil {
		return nil, err
	}
	ages, err := intCol()
	if err != nil {
		return nil, err
	}
	genders, err := intCol()
	if err != nil {
		return nil, err
	}
	zips, err := intCol()
	if err != nil {
		return nil, err
	}
	diseases, err := intCol()
	if err != nil {
		return nil, err
	}
	drugs, err := floatCol()
	if err != nil {
		return nil, err
	}
	rows := make([]Row, n)
	for i := range rows {
		rows[i].Patient = datagen.Patient{
			ID:           int32(ids[i]),
			Age:          int32(ages[i]),
			Gender:       byte(genders[i]),
			Zipcode:      int32(zips[i]),
			DiseaseID:    int32(diseases[i]),
			DrugResponse: drugs[i],
		}
		rows[i].Expr = make([]float64, genes)
	}
	for g := 0; g < genes; g++ {
		col, err := floatCol()
		if err != nil {
			return nil, err
		}
		for i := range rows {
			rows[i].Expr[g] = col[i]
		}
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing segment bytes", ErrCorrupt, len(rest))
	}
	return rows, nil
}
