package genbase

import (
	"context"
	"strings"
	"testing"

	"github.com/genbase/genbase/internal/core"
	"github.com/genbase/genbase/internal/datagen"
	"github.com/genbase/genbase/internal/engine"
)

// Close returns every single-node engine to its not-loaded state: a Run
// after Close (and after a second Close) gets the engine's "not loaded"
// error instead of reaching storage that Close released.
func TestRunAfterCloseReportsNotLoaded(t *testing.T) {
	ds := datagen.MustGenerate(datagen.Config{Size: datagen.Small, Scale: 0.2, Seed: 1})
	p := engine.DefaultParams()
	for _, cfg := range core.SingleNodeConfigs() {
		t.Run(cfg.Name, func(t *testing.T) {
			eng := cfg.New(1, t.TempDir())
			if err := eng.Load(ds); err != nil {
				t.Fatal(err)
			}
			if _, err := eng.Run(context.Background(), engine.Q1Regression, p); err != nil {
				t.Fatalf("run while loaded: %v", err)
			}
			for i := 0; i < 2; i++ {
				if err := eng.Close(); err != nil {
					t.Fatalf("close %d: %v", i+1, err)
				}
				_, err := eng.Run(context.Background(), engine.Q1Regression, p)
				if err == nil || !strings.HasSuffix(err.Error(), "not loaded") {
					t.Fatalf("run after close %d: got %v, want the not-loaded error", i+1, err)
				}
			}
		})
	}
}
