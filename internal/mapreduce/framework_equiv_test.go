package mapreduce

// Run against the runtime it replaced (framework_ref_test.go), on generated
// jobs: reducer output must be identical line for line and in order, and the
// ShuffleCost matrix identical, before any timing of the new runtime is read.

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
)

// adapt expresses a reference-shaped job in the current Job shape, so one
// definition drives both runtimes.
func adapt(j *refJob) *Job {
	emitTo := func(out *Emitter) func(k, v string) {
		return func(k, v string) { out.Emit([]byte(k), []byte(v)) }
	}
	group := func(fn func(string, []string, func(k, v string)) error) func([]byte, [][]byte, *Emitter) error {
		if fn == nil {
			return nil
		}
		return func(key []byte, values [][]byte, out *Emitter) error {
			vs := make([]string, len(values))
			for i, v := range values {
				vs[i] = string(v)
			}
			return fn(string(key), vs, emitTo(out))
		}
	}
	n := &Job{Name: j.Name, Input: j.Input, NumReducers: j.NumReducers,
		Combine: group(j.Combine), Reduce: group(j.Reduce)}
	if j.Map != nil {
		n.Map = func(line string, out *Emitter) error { return j.Map(line, emitTo(out)) }
	}
	if j.MapSplit != nil {
		n.MapSplit = func(split []string, out *Emitter) error { return j.MapSplit(split, emitTo(out)) }
	}
	return n
}

// recordingSched is a LocalScheduler that keeps the traffic matrix it is told.
type recordingSched struct {
	LocalScheduler
	traffic [][]int64
}

func (s *recordingSched) ShuffleCost(b [][]int64) { s.traffic = b }

// assertMatchesReference runs the job through both runtimes and compares
// output and shuffle traffic.
func assertMatchesReference(t *testing.T, job *refJob, workers int) {
	t.Helper()
	refSched := &recordingSched{LocalScheduler: LocalScheduler{Workers: workers}}
	want, err := refRun(context.Background(), job, refSched)
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	sched := &recordingSched{LocalScheduler: LocalScheduler{Workers: workers}}
	got, err := Run(context.Background(), adapt(job), sched)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d reducers, reference has %d", len(got), len(want))
	}
	for p := range want {
		if !slices.Equal(got[p], want[p]) {
			t.Fatalf("reducer %d output differs:\n got %q\nwant %q", p, got[p], want[p])
		}
	}
	if len(sched.traffic) != len(refSched.traffic) {
		t.Fatalf("traffic has %d mappers, reference %d", len(sched.traffic), len(refSched.traffic))
	}
	for m := range refSched.traffic {
		if !slices.Equal(sched.traffic[m], refSched.traffic[m]) {
			t.Fatalf("mapper %d traffic %v, reference %v", m, sched.traffic[m], refSched.traffic[m])
		}
	}
}

// Generated records are "key=value" pairs, ';'-separated on a line.
func emitPairs(line string, emit func(k, v string)) {
	for _, pair := range strings.Split(line, ";") {
		k, v, _ := strings.Cut(pair, "=")
		emit(k, v)
	}
}

func mapPairs(line string, emit func(k, v string)) error {
	emitPairs(line, emit)
	return nil
}

func mapSplitPairs(split []string, emit func(k, v string)) error {
	for _, line := range split {
		emitPairs(line, emit)
	}
	return nil
}

// The group functions are order-sensitive on purpose: joined values expose
// any difference in the sequence a key's values arrive in.
var groupFuncs = map[string]func(string, []string, func(k, v string)) error{
	"none": nil,
	"join": func(key string, values []string, emit func(k, v string)) error {
		emit(key, strings.Join(values, "+"))
		return nil
	},
	// rekey emits under a shorter key, so a combiner's output is neither
	// sorted nor duplicate-free, and drops every group of three.
	"rekey": func(key string, values []string, emit func(k, v string)) error {
		if len(values) == 3 {
			return nil
		}
		emit(key[:min(1, len(key))], strings.Join(values, "|"))
		emit(key, fmt.Sprint(len(values)))
		return nil
	},
}

// Keys repeat within and across mappers and include prefixes of each other
// and the empty key; values include the empty value.
var (
	genKeys   = []string{"", "a", "ab", "abc", "b", "ba", "0000000002", "0000000010", "c:0000000001:0000000003", "c:0000000001"}
	genValues = []string{"", "1", "x", "2.5", "-0", "long-value-with-some-bytes"}
)

func genSplits(rng *rand.Rand, order string, nSplits int) [][]string {
	splits := make([][]string, nSplits)
	for s := range splits {
		if s == 1 {
			continue // an empty split
		}
		n := rng.Intn(40)
		lines := make([]string, n)
		for i := range lines {
			lines[i] = genKeys[rng.Intn(len(genKeys))] + "=" + genValues[rng.Intn(len(genValues))]
		}
		key := func(i int) string { k, _, _ := strings.Cut(lines[i], "="); return k }
		switch order {
		case "ascending":
			sort.SliceStable(lines, func(a, b int) bool { return key(a) < key(b) })
		case "descending":
			sort.SliceStable(lines, func(a, b int) bool { return key(a) > key(b) })
		}
		splits[s] = lines
	}
	return splits
}

func TestRunMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, order := range []string{"ascending", "descending", "shuffled"} {
		for _, mapKind := range []string{"map", "mapsplit"} {
			for _, combine := range []string{"none", "join", "rekey"} {
				for _, reducers := range []int{1, 3, 8} {
					for _, workers := range []int{1, 2, 8} {
						job := &refJob{
							Name:        fmt.Sprintf("%s/%s/combine=%s/r=%d/w=%d", order, mapKind, combine, reducers, workers),
							Input:       genSplits(rng, order, 5),
							Combine:     groupFuncs[combine],
							Reduce:      groupFuncs["join"],
							NumReducers: reducers,
						}
						if mapKind == "map" {
							job.Map = mapPairs
						} else {
							job.MapSplit = mapSplitPairs
						}
						t.Run(job.Name, func(t *testing.T) { assertMatchesReference(t, job, workers) })
					}
				}
			}
		}
	}
}

func TestRunMatchesReferenceEdges(t *testing.T) {
	for name, input := range map[string][][]string{
		"no splits":        nil,
		"one empty split":  SplitLines(nil, 3),
		"all splits empty": {nil, nil, nil},
		"single key":       {{"k=1", "k=2"}, {"k=3"}, nil, {"k=", "k=4"}},
		"single record":    {{"=v"}},
		"prefix keys":      {{"abc=1", "ab=2", "a=3", "=4"}, {"a=5", "abc=6"}},
	} {
		for _, reducers := range []int{0, 1, 3, 8} {
			job := &refJob{Name: name, Input: input, Map: mapPairs,
				Combine: groupFuncs["rekey"], Reduce: groupFuncs["rekey"], NumReducers: reducers}
			t.Run(fmt.Sprintf("%s/r=%d", name, reducers), func(t *testing.T) { assertMatchesReference(t, job, 2) })
		}
	}
}

// FuzzRunMatchesReference derives a job from the fuzz input: data becomes
// records (one byte picks the key, the next the value and whether the line
// continues), shape picks splits, reducers, the map kind and the combiner.
func FuzzRunMatchesReference(f *testing.F) {
	f.Add([]byte("\x00\x01\x02\x03\x04\x05\x06\x07\x08\x09"), uint16(0))
	f.Add([]byte("zyxwvutsrqponmlkjihgfedcba"), uint16(0x1234))
	f.Add([]byte{9, 0x80, 9, 0x81, 9, 2, 8, 0x83, 8, 4}, uint16(0xffff))
	f.Add([]byte{}, uint16(7))
	f.Fuzz(func(t *testing.T, data []byte, shape uint16) {
		var lines []string
		var line []string
		for i := 0; i+1 < len(data); i += 2 {
			line = append(line, genKeys[int(data[i])%len(genKeys)]+"="+genValues[int(data[i+1]&0x7f)%len(genValues)])
			if data[i+1]&0x80 == 0 {
				lines = append(lines, strings.Join(line, ";"))
				line = line[:0]
			}
		}
		combines := []string{"none", "join", "rekey"}
		job := &refJob{
			Name:        "fuzz",
			Input:       SplitLines(lines, int(shape&7)+1),
			Combine:     groupFuncs[combines[int(shape>>3&3)%len(combines)]],
			Reduce:      groupFuncs["join"],
			NumReducers: int(shape >> 5 & 7),
		}
		if shape>>8&1 == 0 {
			job.Map = mapPairs
		} else {
			job.MapSplit = mapSplitPairs
		}
		assertMatchesReference(t, job, int(shape>>9&3)+1)
	})
}
