package analytics

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"runtime"
	"slices"
	"strconv"
	"testing"
	"time"

	"github.com/genbase/genbase/internal/engine"
	"github.com/genbase/genbase/internal/linalg"
)

// refTransferMatrix is the serial TextGlue.TransferMatrix body that the
// parallel COPY writer and reader replaced, kept verbatim as the reference
// the equivalence tests hold the new path to. Its second half is split out
// as refParse so arbitrary streams can be fed to the reference reader.
func refTransferMatrix(ctx context.Context, m *linalg.Matrix) (*linalg.Matrix, error) {
	buf, err := refEncode(ctx, m)
	if err != nil {
		return nil, err
	}
	return refParse(ctx, buf, m.Rows, m.Cols)
}

// refEncode is the serial writer half of the reference.
func refEncode(ctx context.Context, m *linalg.Matrix) (*bytes.Buffer, error) {
	var buf bytes.Buffer
	buf.Grow(m.Rows * m.Cols * 8)
	w := bufio.NewWriterSize(&buf, 1<<20)
	var scratch []byte
	for i := 0; i < m.Rows; i++ {
		if i%256 == 0 {
			if err := engine.CheckCtx(ctx); err != nil {
				return nil, err
			}
		}
		row := m.Row(i)
		for j, v := range row {
			if j > 0 {
				w.WriteByte('\t')
			}
			scratch = strconv.AppendFloat(scratch[:0], v, 'g', -1, 64)
			w.Write(scratch)
		}
		w.WriteByte('\n')
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	return &buf, nil
}

// refParse is the serial reader half of the reference ("R side": parse the
// stream back into a fresh matrix).
func refParse(ctx context.Context, buf *bytes.Buffer, rows, cols int) (*linalg.Matrix, error) {
	m := struct{ Rows, Cols int }{rows, cols} // the shape, so the body reads as it did
	out := linalg.NewMatrix(m.Rows, m.Cols)
	sc := bufio.NewScanner(buf)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	i := 0
	for sc.Scan() {
		if i >= m.Rows {
			return nil, fmt.Errorf("analytics: too many rows in export stream")
		}
		if i%256 == 0 {
			if err := engine.CheckCtx(ctx); err != nil {
				return nil, err
			}
		}
		line := sc.Bytes()
		row := out.Row(i)
		j, start := 0, 0
		for k := 0; k <= len(line); k++ {
			if k == len(line) || line[k] == '\t' {
				if j >= m.Cols {
					return nil, fmt.Errorf("analytics: row %d has too many fields", i)
				}
				v, err := strconv.ParseFloat(string(line[start:k]), 64)
				if err != nil {
					return nil, fmt.Errorf("analytics: parse row %d col %d: %w", i, j, err)
				}
				row[j] = v
				j++
				start = k + 1
			}
		}
		if j != m.Cols {
			return nil, fmt.Errorf("analytics: row %d has %d fields, want %d", i, j, m.Cols)
		}
		i++
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if i != m.Rows {
		return nil, fmt.Errorf("analytics: got %d rows, want %d", i, m.Rows)
	}
	return out, nil
}

// genMatrix fills a rows×cols matrix from seed, mixing ordinary values with
// the encodings' edge cases: NaN, ±Inf, −0, subnormals, ±MaxFloat64,
// 17-digit mantissas and the longest shortest-'g' value.
func genMatrix(rows, cols int, seed uint64) *linalg.Matrix {
	special := []float64{
		math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0,
		math.SmallestNonzeroFloat64, -5e-324, 2.2250738585072009e-308,
		math.MaxFloat64, -math.MaxFloat64, 0.1 + 0.2, 1.2345678901234567e-5,
		-2.2250738585072014e-308, 123456.78901234567, 1e21, 1e-7,
	}
	r := rand.New(rand.NewPCG(seed, 99))
	m := linalg.NewMatrix(rows, cols)
	for i := range m.Data {
		switch r.IntN(4) {
		case 0:
			m.Data[i] = special[r.IntN(len(special))]
		case 1:
			m.Data[i] = math.Float64frombits(r.Uint64())
		default:
			m.Data[i] = r.NormFloat64() * math.Pow(10, float64(r.IntN(20)-10))
		}
	}
	return m
}

func sameMatrixBits(a, b *linalg.Matrix) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := 0; i < a.Rows; i++ {
		ra, rb := a.Row(i), b.Row(i)
		for j := range ra {
			if math.Float64bits(ra[j]) != math.Float64bits(rb[j]) {
				return false
			}
		}
	}
	return true
}

// checkMatchesReference holds the parallel writer and reader to the serial
// reference on m at the given worker count: the same bytes, then the same
// bits.
func checkMatchesReference(t *testing.T, m *linalg.Matrix, workers int) {
	t.Helper()
	ctx := context.Background()
	want, err := refEncode(ctx, m)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := encodeText(ctx, m, workers)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stream, want.Bytes()) {
		t.Fatalf("%d×%d at %d workers: stream differs from the serial writer's", m.Rows, m.Cols, workers)
	}
	wantOut, err := refParse(ctx, want, m.Rows, m.Cols)
	if err != nil {
		t.Fatal(err)
	}
	out, err := parseText(ctx, stream, m.Rows, m.Cols, workers)
	if err != nil {
		t.Fatal(err)
	}
	if !sameMatrixBits(out, wantOut) {
		t.Fatalf("%d×%d at %d workers: parsed values differ from the reference's", m.Rows, m.Cols, workers)
	}
	linalg.PutMatrix(out)
}

func TestTextGlueMatchesReference(t *testing.T) {
	noLeak(t)
	// Row counts at 1 and around chunk boundaries: fewer rows than workers,
	// counts that leave a remainder when split 2, 3 or 8 ways, and the
	// 256-row context-check stride.
	shapes := [][2]int{
		{1, 1}, {1, 9}, {9, 1}, {2, 3}, {3, 2}, {7, 5}, {8, 8}, {9, 17},
		{17, 750}, {255, 3}, {256, 3}, {257, 3}, {513, 4},
	}
	for si, sh := range shapes {
		m := genMatrix(sh[0], sh[1], uint64(si))
		for _, w := range []int{1, 2, 3, 8} {
			checkMatchesReference(t, m, w)
		}
	}
	// TransferMatrix itself, on both sides of the inline threshold (87.4
	// rows at 750 columns).
	for _, sh := range [][2]int{{87, 750}, {88, 750}} {
		m := genMatrix(sh[0], sh[1], 7)
		want, err := refTransferMatrix(context.Background(), m)
		if err != nil {
			t.Fatal(err)
		}
		got, err := TextGlue{}.TransferMatrix(context.Background(), m)
		if err != nil || !sameMatrixBits(got, want) {
			t.Fatalf("%d×%d: TransferMatrix differs from the reference (err %v)", sh[0], sh[1], err)
		}
	}
}

// checkParseMatches feeds stream to both readers at every worker count and
// requires the same values or the same error text.
func checkParseMatches(t *testing.T, stream []byte, rows, cols int) {
	t.Helper()
	ctx := context.Background()
	want, wantErr := refParse(ctx, bytes.NewBuffer(slices.Clone(stream)), rows, cols)
	for _, w := range []int{1, 2, 3, 8} {
		got, err := parseText(ctx, stream, rows, cols, w)
		switch {
		case (err == nil) != (wantErr == nil):
			t.Fatalf("%q as %d×%d at %d workers: error %v, reference %v", stream, rows, cols, w, err, wantErr)
		case err != nil && err.Error() != wantErr.Error():
			t.Fatalf("%q as %d×%d at %d workers: error %q, reference %q", stream, rows, cols, w, err, wantErr)
		case err == nil && !sameMatrixBits(got, want):
			t.Fatalf("%q as %d×%d at %d workers: values differ from the reference's", stream, rows, cols, w)
		}
		if got != nil {
			linalg.PutMatrix(got)
		}
	}
}

func TestTextGlueMalformedMatchesReference(t *testing.T) {
	cases := []struct {
		name       string
		stream     string
		rows, cols int
	}{
		{"well formed", "1\t2\n3\t4\n", 2, 2},
		{"too many fields", "1\t2\n3\t4\t5\n", 2, 2},
		{"too few fields", "1\t2\n3\n", 2, 2},
		{"extra row", "1\t2\n3\t4\n5\t6\n", 2, 2},
		{"missing row", "1\t2\n", 2, 2},
		{"missing final newline", "1\t2\n3\t4", 2, 2},
		{"bad number", "1\tx\n3\t4\n", 2, 2},
		{"empty field", "1\t\n3\t4\n", 2, 2},
		{"empty line", "1\t2\n\n3\t4\n", 2, 2},
		{"crlf", "1\t2\r\n3\t4\r\n", 2, 2},
		{"bare cr", "1\r2\n3\t4\n", 2, 2},
		{"extra row after bad row", "1\t2\nx\t4\n5\t6\n", 2, 2},
		{"empty stream", "", 2, 2},
		{"no rows wanted", "1\n", 0, 1},
		{"error in the second half", "1\n2\n3\n4\n5\n6\n7\n8\nz\n", 9, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { checkParseMatches(t, []byte(c.stream), c.rows, c.cols) })
	}
}

// FuzzTextGlueParse feeds arbitrary bytes to the parallel reader and the
// serial reference with a given shape: both return the same values, or both
// return the same error. Zero-column shapes are left out, because the
// reference rejects the zero-width rows the new reader accepts
// (TestGluesAgreeOnEmptyShapes).
func FuzzTextGlueParse(f *testing.F) {
	f.Add([]byte("1\t2\n3\t4\n"), uint8(2), uint8(2))
	f.Add([]byte("1\t2\n3\t4"), uint8(2), uint8(2))
	f.Add([]byte("NaN\t-Inf\r\n-0\t5e-324\n"), uint8(2), uint8(2))
	f.Add([]byte("1e400\n\n"), uint8(2), uint8(1))
	f.Add([]byte("0x1p-2\t1_0\n"), uint8(1), uint8(2))
	f.Fuzz(func(t *testing.T, stream []byte, rows, cols uint8) {
		if cols == 0 {
			return
		}
		checkParseMatches(t, stream, int(rows%16), int(cols%16)+1)
	})
}

// TestTextGluePerfFloor asserts that the parallel glue stays 1.5× ahead of
// the serial body it replaced at 1000×750 (the medium preset's expression
// matrix) with two workers, after checking the stream bytes and the parsed
// bits against it. Best of five interleaved rounds; gated like the kernel
// floors.
func TestTextGluePerfFloor(t *testing.T) {
	if os.Getenv("GENBASE_PERF_FLOOR") == "" {
		t.Skip("set GENBASE_PERF_FLOOR=1 to run the wall-clock glue floor")
	}
	if runtime.NumCPU() < 2 {
		t.Skip("the parallel glue floor needs two CPUs")
	}
	// Expression-like values: genMatrix's random bit patterns would time
	// strconv's slow paths rather than the glue.
	m := linalg.NewMatrix(1000, 750)
	r := rand.New(rand.NewPCG(3, 99))
	for i := range m.Data {
		m.Data[i] = r.NormFloat64()*2 + 8
	}
	checkMatchesReference(t, m, 2)
	ctx := context.Background()
	ref, par := time.Duration(1<<62), time.Duration(1<<62)
	for r := 0; r < 5; r++ {
		t0 := time.Now()
		refTransferMatrix(ctx, m)
		t1 := time.Now()
		stream, _ := encodeText(ctx, m, 2)
		out, _ := parseText(ctx, stream, m.Rows, m.Cols, 2)
		t2 := time.Now()
		linalg.PutMatrix(out)
		ref, par = min(ref, t1.Sub(t0)), min(par, t2.Sub(t1))
	}
	ratio := float64(ref) / float64(par)
	t.Logf("text glue 1000×750: reference %v, parallel %v (%.2fx, floor 1.5x)", ref, par, ratio)
	if ratio < 1.5 {
		t.Errorf("perf floor broken: the parallel text glue is %.2fx its reference body, floor 1.5x", ratio)
	}
}
