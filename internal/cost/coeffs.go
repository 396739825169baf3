package cost

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"
)

// coeffs.json is the committed coefficient table: data, not a build output.
// Nothing regenerates it; its header records how it was fit (DESIGN.md §16).
//
//go:embed coeffs.json
var embeddedCoeffs []byte

// FitDims is the dataset shape at which the table prices plans: the small
// preset (250 patients × 250 genes × 100 GO terms) the table was fit at.
// The router's default online model and `genbase-bench explain` estimate at
// it.
var FitDims = Dims{Patients: 250, Genes: 250, GOTerms: 100}

var (
	defaultOnce  sync.Once
	defaultModel *Model
	defaultErr   error
)

// Default returns the committed model, parsed once. It panics only if the
// committed file is unparseable — a build defect, not a runtime condition.
func Default() *Model {
	defaultOnce.Do(func() {
		defaultModel, defaultErr = parseModel(embeddedCoeffs)
		if defaultErr != nil {
			defaultErr = fmt.Errorf("parse embedded coeffs.json: %w", defaultErr)
		}
	})
	if defaultErr != nil {
		panic(defaultErr)
	}
	return defaultModel
}

// parseModel decodes a coefficient table strictly: one JSON object with no
// field the Model does not declare (so a stale table, such as one still
// carrying the dropped parallel_kernel_scale, is refused rather than half
// read), at least one configuration, and positive rates for each.
func parseModel(blob []byte) (*Model, error) {
	dec := json.NewDecoder(bytes.NewReader(blob))
	dec.DisallowUnknownFields()
	var m Model
	if err := dec.Decode(&m); err != nil {
		return nil, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, errors.New("trailing data after the table")
	}
	if len(m.Coeffs) == 0 {
		return nil, errors.New("no configurations")
	}
	for key, co := range m.Coeffs {
		if !(co.DMNsPerUnit > 0) || !(co.KernelNsPerUnit > 0) {
			return nil, fmt.Errorf("%s: rates must be positive, got dm %v kernel %v", key, co.DMNsPerUnit, co.KernelNsPerUnit)
		}
	}
	return &m, nil
}
