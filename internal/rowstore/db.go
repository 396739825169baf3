// Package rowstore is the conventional-RDBMS configuration (the paper's
// Postgres): tables live in slotted-page heap files behind a buffer pool,
// each scan table with a compressed columnar sidecar built at load
// (sidecar.go). Data management decodes heap pages and sidecar segments in
// columnar batches; the Volcano-style tuple-at-a-time iterator executor
// (sequential scan, hash join, sort, hash aggregate, expression evaluation)
// runs the GO scan and the Madlib-simulated SQL plans.
//
// Two analytics modes mirror the paper's configurations 2 and 3:
//
//   - ModeR ("Postgres + R"): data management runs in the row store, then
//     results are exported through a text COPY stream and re-parsed by the
//     external "R" process before the linalg kernels run — paying the
//     copy/reformat cost the paper highlights.
//   - ModeMadlib ("Postgres + Madlib"): analytics stay in the database.
//     Regression and covariance run as native (C++-like) UDFs; SVD and the
//     Wilcoxon statistics are *simulated in SQL and plpython*, i.e. executed
//     as relational plans through the interpreted executor, which is why
//     they are orders of magnitude slower (and, like the paper, often hit
//     the time cutoff). Biclustering is unsupported.
package rowstore

import (
	"fmt"
	"os"
	"path/filepath"

	"github.com/genbase/genbase/internal/datagen"
	"github.com/genbase/genbase/internal/relation"
	"github.com/genbase/genbase/internal/storage"
)

// poolFrames is the per-table buffer pool size (frames × 8 KiB). Small
// enough that large tables do not fit, so scans hit the buffer manager.
const poolFrames = 512

// TableHandle couples a schema with its heap file and any secondary indexes.
type TableHandle struct {
	Name    string
	Schema  relation.Schema
	Heap    *storage.HeapFile
	indexes map[string]*BTree // column name → index
}

// CreateIndex registers a B+tree index on an int64 column; subsequent
// inserts maintain it (create indexes before bulk loading).
func (t *TableHandle) CreateIndex(col string) *BTree {
	if t.Schema[t.Schema.MustColIndex(col)].Kind != relation.KindInt64 {
		panic("rowstore: indexes are supported on int64 columns only")
	}
	if t.indexes == nil {
		t.indexes = make(map[string]*BTree)
	}
	idx := NewBTree(0)
	t.indexes[col] = idx
	return idx
}

// Index returns the index on col, or nil.
func (t *TableHandle) Index(col string) *BTree { return t.indexes[col] }

// DB is a catalog of heap-file tables rooted at a directory.
type DB struct {
	dir    string
	tables map[string]*TableHandle
}

// OpenDB creates a database rooted at dir (created if needed).
func OpenDB(dir string) (*DB, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &DB{dir: dir, tables: make(map[string]*TableHandle)}, nil
}

// CreateTable makes an empty table, replacing any previous one.
func (db *DB) CreateTable(name string, schema relation.Schema) (*TableHandle, error) {
	if old, ok := db.tables[name]; ok {
		old.Heap.Remove()
		delete(db.tables, name)
	}
	h, err := storage.CreateHeapFile(filepath.Join(db.dir, name+".heap"), poolFrames)
	if err != nil {
		return nil, err
	}
	t := &TableHandle{Name: name, Schema: schema, Heap: h}
	db.tables[name] = t
	return t, nil
}

// Table returns a handle by name.
func (db *DB) Table(name string) (*TableHandle, error) {
	t, ok := db.tables[name]
	if !ok {
		return nil, fmt.Errorf("rowstore: no table %q", name)
	}
	return t, nil
}

// Close closes every table's heap file and removes the directory.
func (db *DB) Close() error {
	var firstErr error
	for _, t := range db.tables {
		if err := t.Heap.Remove(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	os.Remove(db.dir)
	return firstErr
}

// Insert encodes and appends a row, maintaining any indexes.
func (t *TableHandle) Insert(r relation.Row, scratch []byte) ([]byte, error) {
	buf := relation.EncodeRow(t.Schema, r, scratch[:0])
	if len(t.indexes) == 0 {
		return buf, t.Heap.Append(buf)
	}
	rid, err := t.Heap.AppendLocated(buf)
	if err != nil {
		return buf, err
	}
	for col, idx := range t.indexes {
		idx.Insert(r[t.Schema.MustColIndex(col)].I, rid)
	}
	return buf, nil
}

// Schemas for the four benchmark tables (paper §3.1, relational form).
var (
	MicroarraySchema = relation.Schema{
		{Name: "geneid", Kind: relation.KindInt64},
		{Name: "patientid", Kind: relation.KindInt64},
		{Name: "expressionvalue", Kind: relation.KindFloat64},
	}
	PatientsSchema = relation.Schema{
		{Name: "patientid", Kind: relation.KindInt64},
		{Name: "age", Kind: relation.KindInt64},
		{Name: "gender", Kind: relation.KindInt64},
		{Name: "zipcode", Kind: relation.KindInt64},
		{Name: "diseaseid", Kind: relation.KindInt64},
		{Name: "drugresponse", Kind: relation.KindFloat64},
	}
	GenesSchema = relation.Schema{
		{Name: "geneid", Kind: relation.KindInt64},
		{Name: "target", Kind: relation.KindInt64},
		{Name: "position", Kind: relation.KindInt64},
		{Name: "length", Kind: relation.KindInt64},
		{Name: "function", Kind: relation.KindInt64},
	}
	GOSchema = relation.Schema{
		{Name: "geneid", Kind: relation.KindInt64},
		{Name: "goid", Kind: relation.KindInt64},
		{Name: "belongs", Kind: relation.KindInt64},
	}
)

// LoadDataset bulk-loads the four benchmark tables from the neutral dataset.
func (db *DB) LoadDataset(ds *datagen.Dataset) error {
	micro, err := db.CreateTable("microarray", MicroarraySchema)
	if err != nil {
		return err
	}
	// Index the fact table on patient id: Q2/Q3's selective patient filters
	// use a bitmap index scan instead of scanning all of microarray.
	micro.CreateIndex("patientid")
	var scratch []byte
	row := make(relation.Row, 3)
	for p := 0; p < ds.Dims.Patients; p++ {
		vals := ds.Expression.Row(p)
		for g, v := range vals {
			row[0] = relation.IntVal(int64(g))
			row[1] = relation.IntVal(int64(p))
			row[2] = relation.FloatVal(v)
			if scratch, err = micro.Insert(row, scratch); err != nil {
				return err
			}
		}
	}

	pats, err := db.CreateTable("patients", PatientsSchema)
	if err != nil {
		return err
	}
	prow := make(relation.Row, 6)
	for _, p := range ds.Patients {
		prow[0] = relation.IntVal(int64(p.ID))
		prow[1] = relation.IntVal(int64(p.Age))
		prow[2] = relation.IntVal(int64(p.Gender))
		prow[3] = relation.IntVal(int64(p.Zipcode))
		prow[4] = relation.IntVal(int64(p.DiseaseID))
		prow[5] = relation.FloatVal(p.DrugResponse)
		if scratch, err = pats.Insert(prow, scratch); err != nil {
			return err
		}
	}

	genes, err := db.CreateTable("genes", GenesSchema)
	if err != nil {
		return err
	}
	grow := make(relation.Row, 5)
	for _, g := range ds.Genes {
		grow[0] = relation.IntVal(int64(g.ID))
		grow[1] = relation.IntVal(int64(g.Target))
		grow[2] = relation.IntVal(int64(g.Position))
		grow[3] = relation.IntVal(int64(g.Length))
		grow[4] = relation.IntVal(int64(g.Function))
		if scratch, err = genes.Insert(grow, scratch); err != nil {
			return err
		}
	}

	gotab, err := db.CreateTable("go", GOSchema)
	if err != nil {
		return err
	}
	orow := make(relation.Row, 3)
	for g := 0; g < ds.Dims.Genes; g++ {
		for t := 0; t < ds.Dims.GOTerms; t++ {
			if ds.GOAt(g, t) != 1 {
				continue
			}
			orow[0] = relation.IntVal(int64(g))
			orow[1] = relation.IntVal(int64(t))
			orow[2] = relation.IntVal(1)
			if scratch, err = gotab.Insert(orow, scratch); err != nil {
				return err
			}
		}
	}
	return nil
}
