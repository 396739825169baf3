package cluster

import (
	"context"
	"errors"
	"testing"
)

func TestExecAllChargesEveryNode(t *testing.T) {
	c := New(DefaultConfig(4))
	seen := make([]int, 4)
	if err := c.ExecAllCtx(context.Background(), func(_ context.Context, node int) error {
		seen[node]++
		// A little real work so every clock advances.
		s := 0.0
		for i := 0; i < 1_000; i++ {
			s += float64(i)
		}
		_ = s
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for node, n := range seen {
		if n != 1 {
			t.Fatalf("node %d ran %d times", node, n)
		}
	}
	if c.MakespanSeconds() <= 0 {
		t.Fatal("ExecAllCtx charged no virtual time")
	}
}

func TestExecAllSurfacesError(t *testing.T) {
	c := New(DefaultConfig(3))
	want := errors.New("node 1 broke")
	err := c.ExecAllCtx(context.Background(), func(_ context.Context, node int) error {
		if node == 1 {
			return want
		}
		return nil
	})
	if !errors.Is(err, want) {
		t.Fatalf("got %v", err)
	}
}
