package rengine

import "testing"

func demoFrame() *Frame {
	return NewFrame(4).
		AddInt("id", []int64{0, 1, 2, 3}).
		AddFloat("v", []float64{0.5, 1.5, 2.5, 3.5})
}

func TestFrameColumns(t *testing.T) {
	f := demoFrame()
	if f.Len() != 4 {
		t.Fatalf("len=%d", f.Len())
	}
	if f.Int("id")[2] != 2 || f.Float("v")[3] != 3.5 {
		t.Fatal("column access")
	}
}

func TestFrameMissingColumnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	demoFrame().Int("nope")
}

func TestFrameLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewFrame(3).AddInt("x", []int64{1})
}
