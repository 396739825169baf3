// Command benchmark is the repository's one benchmark (BENCHMARK.json names
// it). It builds its inputs from a seed, checks every answer, and measures
// four workloads end to end — untraced — and layer by layer, in a separate
// traced run. Everything is measured from outside, through public functions.
//
//	go run ./benchmark -seed 1                  every workload, untraced then traced
//	go run ./benchmark -seed 1 -repeat 5        spread of each end-to-end metric against its bound
//	go run ./benchmark --workload serve-fleet --seed 3 --seconds 20 --trace 0   one driver run
//
// README.md in this directory explains the workloads, metrics and constants.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"github.com/genbase/genbase/internal/linalg"
)

// contract mirrors BENCHMARK.json, which is the single list of workloads,
// metric names, units and bounds: the program emits exactly what it names.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// repoRoot is the directory holding BENCHMARK.json: the working directory
// (the driver runs from the checkout's root) or one of its parents (go test
// runs in the package directory).
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("BENCHMARK.json not found in the working directory or above it")
		}
		dir = parent
	}
}

var root string

func repoFile(rel string) string { return filepath.Join(root, rel) }

func loadContract() (*contract, error) {
	raw, err := os.ReadFile(repoFile("BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var c contract
	if err := json.Unmarshal(raw, &c); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &c, nil
}

// options is one run's settings.
type options struct {
	seed    uint64
	seconds float64
	// refSeconds is the run length the frozen row counts are stated for:
	// run_seconds of BENCHMARK.json.
	refSeconds float64
	trace      bool
	procs      int // nproc: GOMAXPROCS, the client count and the kernel-worker budget
	quiet      bool
	// setupShare is the share of the run spent on set-ups beyond the first
	// (setup_s is the fastest of them all); the traced run and the smoke scale
	// set up once.
	setupShare float64
	// minPasses is the least number of passes over the cells a closed-loop
	// workload makes whatever its time budget, and the number a served
	// workload spreads over its rounds. The smoke scale runs one.
	minPasses int
	// probeReps is how often each direct probe of the traced run is timed
	// (the median is reported); the smoke scale times it once.
	probeReps int
	// rateScale multiplies every frozen open-loop rate: 1, and a fifth at the
	// smoke scale, which checks shapes and must not overload under the race
	// detector's tenfold slowdown (an arrival that waits a second is a failed
	// operation).
	rateScale float64
}

// share is a fraction of the run's measuring time.
func (o options) share(f float64) time.Duration {
	return time.Duration(o.seconds * f * float64(time.Second))
}

// scale shrinks a fixed row count for runs shorter than the reference (the
// smoke test); at the contract's run length it is the identity.
func (o options) scale(n int) int {
	return max(8, int(float64(n)*math.Min(1, o.seconds/o.refSeconds)))
}

// smokeOptions is the smoke scale: 1 s of measuring, one set-up, one pass, a
// fifth of the open-loop rates.
func smokeOptions(o options) options {
	o.seconds, o.setupShare, o.minPasses, o.probeReps, o.rateScale = 1, 0, 1, 1, 0.2
	return o
}

// sample is one reported value and the number of observations behind it.
type sample struct {
	value float64
	n     int
}

// result is what one run of one workload produced.
type result struct {
	workload          string
	values            map[string]sample
	detail            []map[string]any
	attempted, failed int
	errs              []string
	spans             []span // traced run only
}

func (r *result) set(name string, v float64, n int) { r.values[name] = sample{v, n} }

// emit prints the named metrics and returns them in the driver's shape. A
// missing end-to-end metric is a bug; a missing per-layer metric means the
// workload does not exercise that layer and reads 0 with no samples.
func (r *result) emit(defs []metricDef, strict, quiet bool) (map[string]any, error) {
	out := map[string]any{}
	for _, d := range defs {
		s, ok := r.values[d.Name]
		if !ok && strict {
			return nil, fmt.Errorf("%s: metric %s was not measured", r.workload, d.Name)
		}
		if math.IsNaN(s.value) || math.IsInf(s.value, 0) {
			return nil, fmt.Errorf("%s: metric %s is %v", r.workload, d.Name, s.value)
		}
		if !quiet {
			fmt.Printf("metric %-16s %-28s %14.6g %-7s n=%d\n", r.workload, d.Name, s.value, d.Unit, s.n)
		}
		out[d.Name] = map[string]any{"value": s.value, "unit": d.Unit}
	}
	return out, nil
}

func main() { os.Exit(run()) }

func run() int {
	workload := flag.String("workload", "", "run one workload and print the driver's result line (default: all four, untraced then traced)")
	seed := flag.Uint64("seed", 1, "seed of every generated input")
	seconds := flag.Float64("seconds", 0, "measuring time per run (default: run_seconds of BENCHMARK.json)")
	trace := flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	repeat := flag.Int("repeat", 0, "run the untraced set N times and check each end-to-end metric's spread against its bound")
	smoke := flag.Bool("smoke", false, "smoke scale: small preset everywhere, 1 s of measuring, one set-up, one pass")
	flag.Parse()

	var err error
	if root, err = repoRoot(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	c, err := loadContract()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	o := options{seed: *seed, seconds: *seconds, refSeconds: float64(c.RunSeconds), trace: *trace == 1, procs: runtime.NumCPU(), setupShare: setupShare, minPasses: 6, probeReps: probeReps, rateScale: 1}
	if o.seconds <= 0 {
		o.seconds = float64(c.RunSeconds)
	}
	if *smoke {
		o = smokeOptions(o)
	}
	// Fixed settings: tile shape cannot differ between runs; zero-copy and
	// compression stay at their defaults; GOMAXPROCS stays at nproc.
	linalg.SetKernelAutotune(false)
	printHeader(c, o, *smoke)

	specs := workloads(*smoke)
	switch {
	case *repeat > 0:
		return repeatMode(c, specs, *workload, o, *repeat)
	case *workload != "":
		spec, ok := specs[*workload]
		if !ok {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *workload)
			return 2
		}
		return driverRun(c, spec, o)
	}
	// Everything: each workload untraced, then a shorter traced run.
	code := 0
	for _, w := range c.Workloads {
		for _, traced := range []bool{false, true} {
			ro := o
			ro.trace = traced
			if traced {
				ro.seconds = o.seconds / 2
			}
			if rc := driverRun(c, specs[w.Name], ro); rc != 0 {
				code = rc
			}
		}
	}
	return code
}

// printHeader states the host and every frozen constant.
func printHeader(c *contract, o options, smoke bool) {
	h := map[string]any{
		"host_cpus": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"kernel_tiles": linalg.KernelTileInfo(), "git_sha": gitSHA(), "seed": o.seed, "seconds": o.seconds, "smoke": smoke,
		"wal_flush_policy": "the product's: one fsync per group-commit batch",
		"frozen": map[string]any{
			"keys_per_query": keysPerQuery, "fleet_threshold_lo": fleetThresholdLo, "zipf_exponent": zipfExponent,
			"rate_ladder_qps": []float64{rateLowQPS, rateMidQPS, rateHighQPS}, "latency_limit_p95_ms": latencyLimitMs,
			"phase_a_rows": phaseARows, "burst_rows": burstRows, "chunk_rows": chunkRows, "checkpoint_every_rows": checkpointEvery,
			"ingest_row_rate": ingestRowRate, "read_rate_qps": readRateQPS, "ingest_keys_per_query": ingestKeysPerQuery, "ingest_threshold_lo": ingestThresholdLo,
			"fleet_rounds": fleetRounds, "ingest_rounds": ingestRounds, "dataset_seed": datasetSeed, "setup_share": setupShare, "slow_cell_ms": slowCellMs, "probe_repeats": probeReps,
		},
	}
	blob, _ := json.Marshal(h)
	fmt.Printf("header %s\n", blob)
}

// driverRun runs one workload once and prints the driver's result line last.
func driverRun(c *contract, spec *workloadSpec, o options) int {
	res, err := runWorkload(spec, o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", spec.name, err)
		return 1
	}
	for _, e := range res.errs {
		fmt.Fprintf(os.Stderr, "benchmark: %s: failed operation: %s\n", spec.name, e)
	}
	defs, strict := c.EndToEnd, true
	if o.trace {
		defs, strict = c.PerLayer, false
	}
	metrics, err := res.emit(defs, strict, o.quiet)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	line, _ := json.Marshal(map[string]any{
		"correct": res.failed == 0, "attempted": res.attempted, "failed": res.failed, "metrics": metrics,
	})
	fmt.Printf("%s\n", line)
	if res.failed > 0 {
		return 1
	}
	return 0
}

// pyQuartiles is Python's statistics.quantiles(xs, n=4) (the exclusive
// method) — what the driver computes the accepted spread from.
func pyQuartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s)
	at := func(i int) float64 {
		j := i * (m + 1) / 4
		j = min(max(j, 1), m-1)
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// repeatMode runs the untraced set n times and holds every end-to-end
// metric's relative spread against its bound: the quartile distance over the
// median as the driver takes it (max−min over the median below four runs).
// This is how the bounds in BENCHMARK.json were chosen, and how "two sets of
// runs agree" is checked.
func repeatMode(c *contract, specs map[string]*workloadSpec, only string, o options, n int) int {
	o.trace, o.quiet = false, true
	code := 0
	for _, w := range c.Workloads {
		if only != "" && only != w.Name {
			continue
		}
		runs := map[string][]float64{}
		for i := 0; i < n; i++ {
			res, err := runWorkload(specs[w.Name], o)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.Name, err)
				return 1
			}
			if res.failed > 0 {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %d of %d operations failed: %v\n", w.Name, res.failed, res.attempted, res.errs)
				code = 1
			}
			for _, d := range c.EndToEnd {
				runs[d.Name] = append(runs[d.Name], res.values[d.Name].value)
			}
		}
		for _, d := range c.EndToEnd {
			xs := runs[d.Name]
			sort.Float64s(xs)
			spread := (xs[len(xs)-1] - xs[0]) / median(xs)
			if len(xs) >= 4 {
				q1, q2, q3 := pyQuartiles(xs)
				spread = (q3 - q1) / q2
			}
			verdict := "ok"
			if spread > d.Bound && d.Name != "setup_s" {
				verdict, code = "EXCEEDS BOUND", 1
			}
			fmt.Printf("repeat %-16s %-20s min %12.6g  median %12.6g  max %12.6g %-7s spread %6.2f%%  bound %5.1f%%  %s\n",
				w.Name, d.Name, xs[0], median(xs), xs[len(xs)-1], d.Unit, 100*spread, 100*d.Bound, verdict)
		}
	}
	return code
}
