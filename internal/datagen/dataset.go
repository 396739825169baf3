// Package datagen produces the four GenBase datasets (paper §3.1) —
// microarray expression data, patient metadata, gene metadata, and gene
// ontology membership — as deterministic synthetic data, exactly as the
// original benchmark does ("to protect privacy ... we use synthetically
// generated data"). Planted structure gives each query real signal: causal
// genes drive drug response (Q1), pathway factors correlate genes (Q2),
// biclusters span patient/gene subsets (Q3), and a few GO terms are enriched
// among highly expressed genes (Q5).
package datagen

import (
	"fmt"

	"github.com/genbase/genbase/internal/linalg"
)

// Size names a dataset preset.
type Size string

// The paper's four presets, scaled by 1/20 per dimension so the benchmark
// runs on a single-core machine (see DESIGN.md §3.5). Aspect ratios match the
// paper: small 5K×5K, medium 20K patients × 15K genes, large 40K×30K,
// xlarge 70K×60K.
const (
	Small  Size = "small"
	Medium Size = "medium"
	Large  Size = "large"
	XLarge Size = "xlarge"
)

// Dims describes a dataset's shape.
type Dims struct {
	Patients int
	Genes    int
	GOTerms  int
}

// PresetDims returns the dimensions of a preset at the given scale multiplier
// (scale 1.0 is the default 1/20-of-paper size).
func PresetDims(s Size, scale float64) (Dims, error) {
	if scale <= 0 {
		scale = 1
	}
	var d Dims
	switch s {
	case Small:
		d = Dims{Patients: 250, Genes: 250, GOTerms: 100}
	case Medium:
		d = Dims{Patients: 1000, Genes: 750, GOTerms: 200}
	case Large:
		d = Dims{Patients: 2000, Genes: 1500, GOTerms: 400}
	case XLarge:
		d = Dims{Patients: 3500, Genes: 3000, GOTerms: 800}
	default:
		return Dims{}, fmt.Errorf("datagen: unknown size %q", s)
	}
	d.Patients = int(float64(d.Patients) * scale)
	d.Genes = int(float64(d.Genes) * scale)
	d.GOTerms = int(float64(d.GOTerms) * scale)
	if d.Patients < 4 || d.Genes < 4 || d.GOTerms < 2 {
		return Dims{}, fmt.Errorf("datagen: scale %v too small for %s", scale, s)
	}
	return d, nil
}

// Patient is one row of the patient metadata table (paper §3.1.2).
type Patient struct {
	ID           int32
	Age          int32
	Gender       byte // 'M' or 'F'
	Zipcode      int32
	DiseaseID    int32 // 1..21
	DrugResponse float64
}

// Gene is one row of the gene metadata table (paper §3.1.3).
type Gene struct {
	ID       int32
	Target   int32 // id of the gene targeted by this gene's protein
	Position int32 // base pairs from chromosome start
	Length   int32 // length in base pairs
	Function int32 // functional category code, [0, 1000)
}

// Dataset bundles the four benchmark tables in neutral (engine-independent)
// form. Each engine loads this into its own storage format.
type Dataset struct {
	Size Size
	Dims Dims
	Seed uint64

	// Expression is the microarray matrix: rows are patients, columns genes
	// (paper §3.1.1). Expression.At(p, g) is the value for patient p, gene g.
	Expression *linalg.Matrix

	Patients []Patient
	Genes    []Gene

	// GO is the gene-ontology membership matrix: GO[g*GOTerms + t] == 1 when
	// gene g belongs to term t (paper §3.1.4, array form).
	GO []uint8

	// Provenance of planted structure, used by tests and validation.
	CausalGenes    []int // genes that truly drive drug response (Q1 signal)
	EnrichedTerms  []int // GO terms planted to be expression-enriched (Q5 signal)
	PlantedRowSets [][]int
	PlantedColSets [][]int
}

// GOAt reports membership of gene g in term t.
func (d *Dataset) GOAt(g, t int) uint8 { return d.GO[g*d.Dims.GOTerms+t] }

// BytesEstimate approximates the in-memory footprint of the dataset; the
// engines use it for memory budgeting.
func (d *Dataset) BytesEstimate() int64 {
	cells := int64(d.Dims.Patients) * int64(d.Dims.Genes)
	return cells*8 + int64(len(d.Patients))*24 + int64(len(d.Genes))*20 + int64(len(d.GO))
}

// NumDiseases is the fixed disease vocabulary size from the paper ("our data
// set contains 21 diseases").
const NumDiseases = 21

// FunctionRange is the exclusive upper bound of gene function codes. The
// paper's example predicate "function < 250" selects 25% of genes under a
// uniform code assignment.
const FunctionRange = 1000
