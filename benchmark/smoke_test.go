package main

import (
	"math"
	"regexp"
	"runtime"
	"testing"

	"github.com/genbase/genbase/internal/linalg"
)

// TestSmoke runs every workload once at the command's -smoke scale, traced
// (the traced run measures the end-to-end values too, from one set-up), and
// checks the shape of what comes out: every metric BENCHMARK.json names is
// there once, finite and well named, no operation failed, and the spans of a
// request nest under its root with non-negative self times. No timing is
// asserted.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload; not short")
	}
	var err error
	if root, err = repoRoot(); err != nil {
		t.Fatal(err)
	}
	c, err := loadContract()
	if err != nil {
		t.Fatal(err)
	}
	linalg.SetKernelAutotune(false)
	nameOK := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, c.EndToEnd...), c.PerLayer...) {
		if !nameOK.MatchString(d.Name) || len(d.Name) > 64 {
			t.Errorf("metric name %q is not made of letters, digits, _ . -", d.Name)
		}
		if seen[d.Name] {
			t.Errorf("metric %s is named twice in BENCHMARK.json", d.Name)
		}
		seen[d.Name] = true
	}

	specs := workloads(true)
	if len(specs) != len(c.Workloads) {
		t.Errorf("%d workloads defined, BENCHMARK.json names %d", len(specs), len(c.Workloads))
	}
	o := smokeOptions(options{seed: 1, refSeconds: float64(c.RunSeconds), trace: true, quiet: true, procs: runtime.NumCPU()})
	for _, w := range c.Workloads {
		spec, ok := specs[w.Name]
		if !ok {
			t.Errorf("BENCHMARK.json names workload %q, which the program does not define", w.Name)
			continue
		}
		res, err := runWorkload(spec, o)
		if err != nil {
			t.Errorf("%s: %v", w.Name, err)
			continue
		}
		if res.failed != 0 || res.attempted < 1 {
			t.Errorf("%s: %d of %d operations failed: %v", w.Name, res.failed, res.attempted, res.errs)
		}
		for _, d := range c.EndToEnd {
			s, ok := res.values[d.Name]
			if !ok || s.value <= 0 || math.IsInf(s.value, 0) || math.IsNaN(s.value) {
				t.Errorf("%s: end-to-end metric %s = %v (measured: %v); want a finite value above 0", w.Name, d.Name, s.value, ok)
			}
		}
		for _, set := range [][]metricDef{c.EndToEnd, c.PerLayer} {
			m, err := res.emit(set, false, true)
			if err != nil {
				t.Errorf("%s: %v", w.Name, err)
			} else if len(m) != len(set) {
				t.Errorf("%s: %d metrics emitted, %d named", w.Name, len(m), len(set))
			}
		}
		for name := range res.values {
			if !seen[name] {
				t.Errorf("%s: measured %s, which BENCHMARK.json does not name", w.Name, name)
			}
		}
		checkSpans(t, w.Name, res.spans)
	}
}

// checkSpans holds every request's spans to the tracing contract: one root,
// every other span's parent is an earlier span of the same request, and no
// span's children cover more time than the span itself.
func checkSpans(t *testing.T, workload string, spans []span) {
	t.Helper()
	if len(spans) == 0 {
		t.Errorf("%s: traced run recorded no span", workload)
		return
	}
	byReq := map[uint64][]span{}
	for _, s := range spans {
		byReq[s.Req] = append(byReq[s.Req], s)
	}
	for req, ss := range byReq {
		roots := 0
		for i, s := range ss {
			if int(s.ID) != i {
				t.Fatalf("%s: request %d: span %d has id %d", workload, req, i, s.ID)
			}
			switch {
			case s.Parent == -1:
				roots++
			case s.Parent < 0 || s.Parent >= s.ID:
				t.Errorf("%s: request %d: span %s has parent %d", workload, req, s.Name, s.Parent)
			}
			if s.DurNs < 0 {
				t.Errorf("%s: request %d: span %s lasts %d ns", workload, req, s.Name, s.DurNs)
			}
		}
		if roots != 1 {
			t.Errorf("%s: request %d has %d root spans", workload, req, roots)
		}
		for _, s := range ss {
			if self := selfNs(ss, s.ID); self < 0 {
				t.Errorf("%s: request %d: span %s has self time %d ns", workload, req, s.Name, self)
			}
		}
	}
}
