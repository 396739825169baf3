package genbase

import (
	"context"
	"testing"

	"github.com/genbase/genbase/internal/datagen"
	"github.com/genbase/genbase/internal/engine"
	"github.com/genbase/genbase/internal/mapreduce"
)

// hadoopSelectiveGolden holds Hadoop's answer hashes at the repo benchmark's
// selective parameters (benchmark/workloads.go selectiveParams) on the small
// preset, seed 1, recorded from the MapReduce runtime that the arena/merge
// runtime replaced (internal/mapreduce/framework_ref_test.go). The committed
// hadoop/* goldens cover DefaultParams only; these pin the narrow-predicate
// shapes the selective-medium workload times.
var hadoopSelectiveGolden = map[engine.QueryID]string{
	engine.Q1Regression:       "7e954f07a81644ebc83e92e45dbcef249cef088545e00ef53a2c85c5adc47d63",
	engine.Q2Covariance:       "e6d475c314a4372cd93ce4969da0f585e84c7c73d784197aca5b9b91f0201094",
	engine.Q4SVD:              "80429efb12932b88aaee94a82d4a4724806bc508998e34259cba87e672e7d356",
	engine.Q5Statistics:       "af5c9a16e7acc806536a2f9836429e67b8b7bf79dcb72d05eba6c3bfbff489a5",
	engine.Q6CohortRegression: "0d010460df5bee470bac3a0c8a20d5199e1da7c8c516d26eb51874648b104696",
}

func TestHadoopSelectiveAnswersUnchanged(t *testing.T) {
	ds, err := datagen.Generate(datagen.Config{Size: datagen.Small, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	p := engine.DefaultParams()
	p.FunctionThreshold = 25
	p.MaxAge = 22
	p.SampleFrac = 0.01
	p.MaxBiclusters = 1
	p.SVDK = 3
	h := mapreduce.New()
	if err := h.Load(ds); err != nil {
		t.Fatal(err)
	}
	for q, want := range hadoopSelectiveGolden {
		res, err := h.Run(context.Background(), q, p)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if got := goldenAnswerHash(t, res.Answer); got != want {
			t.Errorf("%s: answer hash %s, want %s", q, got, want)
		}
	}
}
