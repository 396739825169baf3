// Package rengine is the "Vanilla R" configuration: an in-memory dataframe
// engine whose data management is row scans over the metadata dataframes and
// a reshape of the microarray's value column, and whose analytics call the
// linalg kernels in-process. Like R, it is single threaded, keeps everything
// memory resident, and has a hard cell limit — the stand-in for R's 2³¹−1
// array limit and single-node memory wall that make the paper's large
// dataset fail ("R by itself cannot load the data into memory").
package rengine

import "fmt"

// Frame is a minimal column-oriented dataframe: parallel typed vectors.
type Frame struct {
	ints map[string][]int64
	flts map[string][]float64
	n    int
}

// NewFrame creates an empty frame with n rows.
func NewFrame(n int) *Frame {
	return &Frame{ints: make(map[string][]int64), flts: make(map[string][]float64), n: n}
}

// Len returns the row count.
func (f *Frame) Len() int { return f.n }

// AddInt attaches an int64 column.
func (f *Frame) AddInt(name string, col []int64) *Frame {
	if len(col) != f.n {
		panic(fmt.Sprintf("rengine: column %s has %d rows, frame has %d", name, len(col), f.n))
	}
	f.ints[name] = col
	return f
}

// AddFloat attaches a float64 column.
func (f *Frame) AddFloat(name string, col []float64) *Frame {
	if len(col) != f.n {
		panic(fmt.Sprintf("rengine: column %s has %d rows, frame has %d", name, len(col), f.n))
	}
	f.flts[name] = col
	return f
}

// Int returns an int64 column.
func (f *Frame) Int(name string) []int64 {
	c, ok := f.ints[name]
	if !ok {
		panic(fmt.Sprintf("rengine: no int column %q", name))
	}
	return c
}

// Float returns a float64 column.
func (f *Frame) Float(name string) []float64 {
	c, ok := f.flts[name]
	if !ok {
		panic(fmt.Sprintf("rengine: no float column %q", name))
	}
	return c
}
