package datagen

import (
	"fmt"
	"math"

	"github.com/genbase/genbase/internal/linalg"
)

// Config controls generation beyond size and seed.
type Config struct {
	Size  Size
	Scale float64 // 1.0 = default (1/20 of paper dimensions)
	// PatientScale additionally multiplies only the patient dimension —
	// the paper's cluster-growth model ("up to 10⁸⁻¹⁰ samples ... each node
	// handling 10⁴⁻⁵ samples"): more patients per cluster, same genes.
	// 0 means 1.
	PatientScale float64
	Seed         uint64

	// NumPathways is the number of latent correlation factors (Q2 signal).
	// 0 means Genes/25.
	NumPathways int
	// NumCausalGenes drive drug response (Q1 signal). 0 means 40 (capped at
	// Genes/4).
	NumCausalGenes int
	// NumBiclusters planted into the expression matrix (Q3 signal). 0 means 5.
	NumBiclusters int
	// NumEnrichedTerms of the GO table carry expression enrichment
	// (Q5 signal). 0 means max(3, GOTerms/20).
	NumEnrichedTerms int
	// NoiseSD is the additive measurement-noise standard deviation. 0 means 0.6.
	NoiseSD float64
}

func (c *Config) setDefaults(d Dims) {
	if c.NumPathways <= 0 {
		c.NumPathways = d.Genes / 25
		if c.NumPathways < 2 {
			c.NumPathways = 2
		}
	}
	if c.NumCausalGenes <= 0 {
		c.NumCausalGenes = 40
	}
	if c.NumCausalGenes > d.Genes/4 {
		c.NumCausalGenes = d.Genes / 4
	}
	if c.NumBiclusters <= 0 {
		c.NumBiclusters = 5
	}
	if c.NumEnrichedTerms <= 0 {
		c.NumEnrichedTerms = d.GOTerms / 20
		if c.NumEnrichedTerms < 3 {
			c.NumEnrichedTerms = 3
		}
	}
	if c.NoiseSD <= 0 {
		c.NoiseSD = 0.6
	}
}

// Generate builds a complete deterministic dataset.
func Generate(cfg Config) (*Dataset, error) {
	dims, err := PresetDims(cfg.Size, cfg.Scale)
	if err != nil {
		return nil, err
	}
	if cfg.PatientScale > 0 {
		dims.Patients = int(float64(dims.Patients) * cfg.PatientScale)
		if dims.Patients < 4 {
			return nil, fmt.Errorf("datagen: patient scale %v too small", cfg.PatientScale)
		}
	}
	cfg.setDefaults(dims)
	root := NewRNG(cfg.Seed ^ 0xdb91_0f5c_e232_a1b7)

	ds := &Dataset{Size: cfg.Size, Dims: dims, Seed: cfg.Seed}
	genGeneMetadata(ds, root.DeriveStream(1))
	genPatients(ds, root.DeriveStream(2))
	genExpression(ds, &cfg, root.DeriveStream(3))
	genDrugResponse(ds, &cfg, root.DeriveStream(4))
	genGO(ds, &cfg, root.DeriveStream(5))
	return ds, nil
}

// MustGenerate is Generate for known-good configs; it panics on error.
// Test seam: the engine packages' test datasets and the root close_test.go.
func MustGenerate(cfg Config) *Dataset {
	ds, err := Generate(cfg)
	if err != nil {
		panic(err)
	}
	return ds
}

func genGeneMetadata(ds *Dataset, rng *RNG) {
	g := ds.Dims.Genes
	ds.Genes = make([]Gene, g)
	pos := int32(0)
	for i := 0; i < g; i++ {
		length := int32(rng.Intn(2000) + 100)
		ds.Genes[i] = Gene{
			ID:       int32(i),
			Target:   int32(rng.Intn(g)),
			Position: pos,
			Length:   length,
			Function: int32(rng.Intn(FunctionRange)),
		}
		pos += length + int32(rng.Intn(5000))
	}
}

func genPatients(ds *Dataset, rng *RNG) {
	p := ds.Dims.Patients
	ds.Patients = make([]Patient, p)
	for i := 0; i < p; i++ {
		gender := byte('F')
		if rng.Float64() < 0.5 {
			gender = 'M'
		}
		ds.Patients[i] = Patient{
			ID:        int32(i),
			Age:       int32(rng.Intn(100)),
			Gender:    gender,
			Zipcode:   int32(rng.Intn(99999) + 1),
			DiseaseID: int32(rng.Intn(NumDiseases) + 1),
			// DrugResponse filled by genDrugResponse.
		}
	}
}

// genExpression fills the microarray matrix with layered structure:
// per-gene base level, pathway latent factors, planted biclusters, noise.
func genExpression(ds *Dataset, cfg *Config, rng *RNG) {
	p, g := ds.Dims.Patients, ds.Dims.Genes
	m := linalg.NewMatrix(p, g)

	// Per-gene base expression: log-normal-ish positive levels.
	base := make([]float64, g)
	for j := range base {
		base[j] = math.Exp(0.3 * rng.NormFloat64())
	}

	// Pathway structure: each gene belongs to one pathway; patients carry a
	// latent activation per pathway. Genes in a pathway co-vary (Q2 signal).
	pathwayOf := make([]int, g)
	loading := make([]float64, g)
	for j := range pathwayOf {
		pathwayOf[j] = rng.Intn(cfg.NumPathways)
		loading[j] = 0.5 + rng.Float64()
	}
	activation := make([]float64, p*cfg.NumPathways)
	for i := range activation {
		activation[i] = rng.NormFloat64()
	}

	noise := rng.DeriveStream(11)
	for i := 0; i < p; i++ {
		row := m.Row(i)
		act := activation[i*cfg.NumPathways : (i+1)*cfg.NumPathways]
		for j := 0; j < g; j++ {
			row[j] = base[j] + loading[j]*act[pathwayOf[j]] + cfg.NoiseSD*noise.NormFloat64()
		}
	}

	// Planted biclusters: additive row+column pattern over random subsets
	// (Q3 signal). Kept modest in size so they do not distort global stats.
	bcRng := rng.DeriveStream(12)
	for b := 0; b < cfg.NumBiclusters; b++ {
		nr := p/10 + 2
		nc := g/10 + 2
		rows := pickDistinct(bcRng, p, nr)
		cols := pickDistinct(bcRng, g, nc)
		rowEff := make([]float64, nr)
		colEff := make([]float64, nc)
		for i := range rowEff {
			rowEff[i] = bcRng.NormFloat64() * 0.3
		}
		for j := range colEff {
			colEff[j] = bcRng.NormFloat64() * 0.3
		}
		level := 3 + bcRng.Float64()*2
		for a, i := range rows {
			for c, j := range cols {
				m.Set(i, j, level+rowEff[a]+colEff[c]+0.05*bcRng.NormFloat64())
			}
		}
		ds.PlantedRowSets = append(ds.PlantedRowSets, rows)
		ds.PlantedColSets = append(ds.PlantedColSets, cols)
	}
	ds.Expression = m
}

// genDrugResponse makes response a sparse linear function of causal-gene
// expression plus noise, so Q1's regression finds real coefficients.
func genDrugResponse(ds *Dataset, cfg *Config, rng *RNG) {
	p := ds.Dims.Patients
	causal := pickDistinct(rng, ds.Dims.Genes, cfg.NumCausalGenes)
	ds.CausalGenes = causal
	weights := make([]float64, len(causal))
	for i := range weights {
		weights[i] = rng.NormFloat64()
	}
	for i := 0; i < p; i++ {
		resp := 2.0
		row := ds.Expression.Row(i)
		for k, j := range causal {
			resp += weights[k] * row[j]
		}
		resp += 0.5 * rng.NormFloat64()
		ds.Patients[i].DrugResponse = resp
	}
}

// genGO assigns genes to terms with skewed term sizes; enriched terms prefer
// genes with high mean expression, giving Q5 true positives.
func genGO(ds *Dataset, cfg *Config, rng *RNG) {
	g, t := ds.Dims.Genes, ds.Dims.GOTerms
	ds.GO = make([]uint8, g*t)

	// Mean expression per gene (over all patients), for enrichment planting.
	means := make([]float64, g)
	for i := 0; i < ds.Dims.Patients; i++ {
		row := ds.Expression.Row(i)
		for j, v := range row {
			means[j] += v
		}
	}
	for j := range means {
		means[j] /= float64(ds.Dims.Patients)
	}
	order := argsortDescending(means)
	rank := make([]int, g) // rank[gene] = 0 for highest mean
	for r, j := range order {
		rank[j] = r
	}

	enriched := map[int]bool{}
	for len(enriched) < cfg.NumEnrichedTerms && len(enriched) < t {
		enriched[rng.Intn(t)] = true
	}
	for term := 0; term < t; term++ {
		// Term size skew: most terms small, a few large.
		frac := 0.02 + 0.2*rng.Float64()*rng.Float64()
		if enriched[term] {
			ds.EnrichedTerms = append(ds.EnrichedTerms, term)
			// Members drawn preferentially from the top of the expression
			// ranking: P(member) decays with rank.
			for j := 0; j < g; j++ {
				pMember := frac * 4 * math.Exp(-3*float64(rank[j])/float64(g))
				if rng.Float64() < pMember {
					ds.GO[j*t+term] = 1
				}
			}
		} else {
			for j := 0; j < g; j++ {
				if rng.Float64() < frac {
					ds.GO[j*t+term] = 1
				}
			}
		}
		// Guarantee at least two members and two non-members so the Wilcoxon
		// test is defined for every term.
		ensureTermBalance(ds, term, rng)
	}
}

func ensureTermBalance(ds *Dataset, term int, rng *RNG) {
	g, t := ds.Dims.Genes, ds.Dims.GOTerms
	members := 0
	for j := 0; j < g; j++ {
		if ds.GO[j*t+term] == 1 {
			members++
		}
	}
	for members < 2 {
		j := rng.Intn(g)
		if ds.GO[j*t+term] == 0 {
			ds.GO[j*t+term] = 1
			members++
		}
	}
	for g-members < 2 {
		j := rng.Intn(g)
		if ds.GO[j*t+term] == 1 {
			ds.GO[j*t+term] = 0
			members--
		}
	}
}

func pickDistinct(rng *RNG, n, k int) []int {
	if k > n {
		k = n
	}
	perm := rng.Perm(n)
	out := make([]int, k)
	copy(out, perm[:k])
	// Keep deterministic ascending order for reproducible planting.
	insertionSortInts(out)
	return out
}

func insertionSortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

func argsortDescending(xs []float64) []int {
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	// Simple heap-free sort (n is at most a few thousand genes).
	quicksortBy(idx, func(a, b int) bool { return xs[a] > xs[b] })
	return idx
}

func quicksortBy(xs []int, less func(a, b int) bool) {
	if len(xs) < 12 {
		for i := 1; i < len(xs); i++ {
			for j := i; j > 0 && less(xs[j], xs[j-1]); j-- {
				xs[j], xs[j-1] = xs[j-1], xs[j]
			}
		}
		return
	}
	pivot := xs[len(xs)/2]
	left, right := 0, len(xs)-1
	for left <= right {
		for less(xs[left], pivot) {
			left++
		}
		for less(pivot, xs[right]) {
			right--
		}
		if left <= right {
			xs[left], xs[right] = xs[right], xs[left]
			left++
			right--
		}
	}
	quicksortBy(xs[:right+1], less)
	quicksortBy(xs[left:], less)
}
