package analytics

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"github.com/genbase/genbase/internal/engine"
	"github.com/genbase/genbase/internal/linalg"
)

func TestTextGlueRoundTripExact(t *testing.T) {
	noLeak(t)
	// strconv shortest formatting round-trips float64 exactly, so the text
	// export path must be lossless — required for cross-engine answer
	// equality.
	f := func(vals []float64) bool {
		for i, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				vals[i] = float64(i) * 1.25
			}
		}
		if len(vals) == 0 {
			vals = []float64{0}
		}
		cols := len(vals)
		m := &linalg.Matrix{Rows: 1, Cols: cols, Stride: cols, Data: vals}
		out, err := TextGlue{}.TransferMatrix(context.Background(), m)
		if err != nil {
			return false
		}
		for i := range vals {
			if out.Data[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestTextGlueMultiRow(t *testing.T) {
	noLeak(t)
	m := linalg.NewMatrix(5, 3)
	for i := range m.Data {
		m.Data[i] = float64(i) * 0.1
	}
	out, err := TextGlue{}.TransferMatrix(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	if linalg.MaxAbsDiff(m, out) != 0 {
		t.Fatal("round trip corrupted")
	}
	// Must be a copy, not an alias.
	out.Set(0, 0, 99)
	if m.At(0, 0) == 99 {
		t.Fatal("glue must copy")
	}
}

func TestTextGlueVector(t *testing.T) {
	noLeak(t)
	v := []float64{1.5, -2.25, 1e-300}
	out, err := TextGlue{}.TransferVector(context.Background(), v)
	if err != nil {
		t.Fatal(err)
	}
	for i := range v {
		if out[i] != v[i] {
			t.Fatalf("vector round trip: %v vs %v", out[i], v[i])
		}
	}
}

func TestTextGlueCancellation(t *testing.T) {
	noLeak(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m := linalg.NewMatrix(300, 10)
	if _, err := (TextGlue{}).TransferMatrix(ctx, m); err == nil {
		t.Fatal("expected cancellation")
	}
}

func TestGlueNames(t *testing.T) {
	if (TextGlue{}).Name() != "text-copy" || (ZeroCopyGlue{}).Name() != "zero-copy" {
		t.Fatal("names")
	}
}

// TestZeroCopyGlueHandsOff pins the UDF boundary colstore-udf runs: the
// kernels receive the caller's matrix and vector themselves, not copies, and
// a cancelled context still stops the hand-off.
func TestZeroCopyGlueHandsOff(t *testing.T) {
	m := linalg.NewMatrix(3, 2)
	v := []float64{1, 2, 3}
	out, err := ZeroCopyGlue{}.TransferMatrix(context.Background(), m)
	if err != nil || out != m {
		t.Fatalf("TransferMatrix returned %p (err %v), want the input %p", out, err, m)
	}
	ov, err := ZeroCopyGlue{}.TransferVector(context.Background(), v)
	if err != nil || len(ov) != len(v) || &ov[0] != &v[0] {
		t.Fatalf("TransferVector must return the input slice (err %v)", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := (ZeroCopyGlue{}).TransferMatrix(ctx, m); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled matrix hand-off: want context.Canceled, got %v", err)
	}
	if _, err := (ZeroCopyGlue{}).TransferVector(ctx, v); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled vector hand-off: want context.Canceled, got %v", err)
	}
}

// noLeak fails the test if it ends with more goroutines running than it
// started with. Exiting goroutines are still counted for a moment, so the
// count is polled for up to a second before failing.
func noLeak(t *testing.T) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		for i := 0; runtime.NumGoroutine() > before && i < 1000; i++ {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > before {
			t.Errorf("%d goroutines before the test, %d after", before, n)
		}
	})
}

// TestGluesAgreeOnEmptyShapes holds both glues to one contract on
// zero-row and zero-column inputs, where the text stream is empty or made of
// empty lines.
func TestGluesAgreeOnEmptyShapes(t *testing.T) {
	noLeak(t)
	ctx := context.Background()
	glues := []Glue{TextGlue{}, ZeroCopyGlue{}}
	for _, sh := range [][2]int{{0, 0}, {0, 4}, {4, 0}, {1, 1}, {1, 4}, {4, 1}} {
		m := linalg.NewMatrix(sh[0], sh[1])
		for i := range m.Data {
			m.Data[i] = float64(i) - 1.5
		}
		for _, g := range glues {
			out, err := g.TransferMatrix(ctx, m)
			if err != nil {
				t.Fatalf("%s on %d×%d: %v", g.Name(), sh[0], sh[1], err)
			}
			if out.Rows != m.Rows || out.Cols != m.Cols || linalg.MaxAbsDiff(out, m) != 0 {
				t.Fatalf("%s on %d×%d returned %d×%d with different values", g.Name(), sh[0], sh[1], out.Rows, out.Cols)
			}
		}
	}
	for _, v := range [][]float64{nil, {}, {2.5}, {1, -2, 3}} {
		for _, g := range glues {
			out, err := g.TransferVector(ctx, v)
			if err != nil || len(out) != len(v) {
				t.Fatalf("%s on a %d-vector: %v (len %d)", g.Name(), len(v), err, len(out))
			}
			for i := range v {
				if out[i] != v[i] {
					t.Fatalf("%s on a %d-vector: element %d is %v, want %v", g.Name(), len(v), i, out[i], v[i])
				}
			}
		}
	}
}

// cancelAfter is a context whose Done channel closes on its limit-th call, so a
// test can cancel a transfer at a chosen context check, including one made
// by a worker mid-range.
type cancelAfter struct {
	context.Context
	n     atomic.Int64
	once  sync.Once
	done  chan struct{}
	limit int64
}

func newCancelAfter(limit int64) *cancelAfter {
	return &cancelAfter{Context: context.Background(), done: make(chan struct{}), limit: limit}
}

func (c *cancelAfter) Done() <-chan struct{} {
	if c.n.Add(1) >= c.limit {
		c.once.Do(func() { close(c.done) })
	}
	return c.done
}

func (c *cancelAfter) Err() error {
	select {
	case <-c.done:
		return context.Canceled
	default:
		return nil
	}
}

// TestTextGlueCancelMidTransfer cancels a parallel transfer at each of its
// context checks, in the writer and in the reader: the call returns
// ctx.Err(), no goroutine outlives it, and TransferMatrixTimed still
// releases its input.
func TestTextGlueCancelMidTransfer(t *testing.T) {
	noLeak(t)
	const rows, cols = 2048, 40 // 8 checks in the writer, 8 in the reader
	probe := newCancelAfter(math.MaxInt64)
	src := linalg.NewMatrix(rows, cols)
	if _, err := (TextGlue{}).TransferMatrix(probe, src); err != nil {
		t.Fatal(err)
	}
	checks := probe.n.Load()
	if checks < 16 {
		t.Fatalf("a %d×%d transfer made %d context checks, want at least 16", rows, cols, checks)
	}
	for limit := int64(1); limit <= checks; limit++ {
		x := linalg.GetMatrixZeroed(rows, cols)
		out, err := TransferMatrixTimed(newCancelAfter(limit), TextGlue{}, &engine.StopWatch{}, x)
		if !errors.Is(err, context.Canceled) || out != nil {
			t.Fatalf("cancelled at check %d of %d: got %v, %v; want context.Canceled", limit, checks, out, err)
		}
		if x.Data != nil {
			t.Fatalf("cancelled at check %d: TransferMatrixTimed kept its input", limit)
		}
	}
}

// TestTextGlueAllocsDoNotGrowWithRows is the transfer's allocation floor:
// buffers are sized up front and the output comes from the arena, so ten
// times the rows costs no more than twice the allocations plus a constant.
func TestTextGlueAllocsDoNotGrowWithRows(t *testing.T) {
	ctx := context.Background()
	allocs := func(rows int) float64 {
		m := linalg.NewMatrix(rows, 750)
		for i := range m.Data {
			m.Data[i] = float64(i) * 1.000000001
		}
		return testing.AllocsPerRun(5, func() {
			out, err := TextGlue{}.TransferMatrix(ctx, m)
			if err != nil {
				t.Fatal(err)
			}
			linalg.PutMatrix(out)
		})
	}
	small, large := allocs(100), allocs(1000)
	t.Logf("allocations per transfer: %v at 100×750, %v at 1000×750", small, large)
	if large > 2*small+8 {
		t.Fatalf("1000×750 transfer makes %v allocations, more than twice the %v of 100×750 plus 8", large, small)
	}
}
