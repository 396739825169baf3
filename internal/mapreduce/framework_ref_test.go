package mapreduce

// The runtime that framework.go's Run replaced, kept verbatim as the
// executable reference (only the identifiers carry a ref prefix): every
// intermediate is a heap KV{string,string}, each reducer concatenates the
// mappers' buckets and stable-sorts the lot, and every key group gets a fresh
// []string. framework_equiv_test.go and FuzzRunMatchesReference hold the new
// Run to this one's output line for line, and the perf floor times it.

import (
	"context"
	"fmt"
	"hash/fnv"
	"sort"

	"github.com/genbase/genbase/internal/engine"
)

// refKV is one intermediate key/value pair.
type refKV struct {
	Key, Value string
}

// refJob is the replaced Job shape: string records and closure emitters.
type refJob struct {
	Name  string
	Input [][]string
	// Map processes one line. Exactly one of Map and MapSplit must be set.
	Map func(line string, emit func(k, v string)) error
	// MapSplit processes a whole split at once.
	MapSplit    func(split []string, emit func(k, v string)) error
	Combine     func(key string, values []string, emit func(k, v string)) error
	Reduce      func(key string, values []string, emit func(k, v string)) error
	NumReducers int
}

// refRun executes the job and returns each reducer's output lines
// ("key\tvalue"), reducers in index order. The scheduler defaults to local
// execution when nil.
func refRun(ctx context.Context, job *refJob, sched TaskScheduler) ([][]string, error) {
	if sched == nil {
		sched = LocalScheduler{}
	}
	r := job.NumReducers
	if r <= 0 {
		r = 1
	}
	nMappers := len(job.Input)
	if nMappers == 0 {
		return make([][]string, r), nil
	}

	// Map phase: each mapper partitions its emissions by hash(key) % r.
	mapOut := make([][][]refKV, nMappers) // [mapper][reducer][]KV
	err := sched.RunWave(ctx, job.Name+":map", nMappers, func(m int) error {
		buckets := make([][]refKV, r)
		emit := func(k, v string) {
			p := refPartition(k, r)
			buckets[p] = append(buckets[p], refKV{k, v})
		}
		switch {
		case job.MapSplit != nil:
			if err := job.MapSplit(job.Input[m], emit); err != nil {
				return fmt.Errorf("mapreduce: %s mapsplit: %w", job.Name, err)
			}
		case job.Map != nil:
			for ln, line := range job.Input[m] {
				if ln%8192 == 0 {
					if err := engine.CheckCtx(ctx); err != nil {
						return err
					}
				}
				if err := job.Map(line, emit); err != nil {
					return fmt.Errorf("mapreduce: %s map: %w", job.Name, err)
				}
			}
		default:
			return fmt.Errorf("mapreduce: %s has no map function", job.Name)
		}
		if job.Combine != nil {
			for p := range buckets {
				combined, err := refCombineBucket(buckets[p], job.Combine)
				if err != nil {
					return fmt.Errorf("mapreduce: %s combine: %w", job.Name, err)
				}
				buckets[p] = combined
			}
		}
		mapOut[m] = buckets
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Report shuffle traffic (bytes of keys+values crossing mapper→reducer).
	traffic := make([][]int64, nMappers)
	for m := range traffic {
		traffic[m] = make([]int64, r)
		for p := 0; p < r; p++ {
			var b int64
			for _, kv := range mapOut[m][p] {
				b += int64(len(kv.Key) + len(kv.Value) + 2)
			}
			traffic[m][p] = b
		}
	}
	sched.ShuffleCost(traffic)

	// Reduce phase: merge, sort by key, group, reduce.
	out := make([][]string, r)
	err = sched.RunWave(ctx, job.Name+":reduce", r, func(p int) error {
		var all []refKV
		for m := 0; m < nMappers; m++ {
			all = append(all, mapOut[m][p]...)
		}
		sort.SliceStable(all, func(a, b int) bool { return all[a].Key < all[b].Key })
		var lines []string
		emit := func(k, v string) { lines = append(lines, k+"\t"+v) }
		for i := 0; i < len(all); {
			if err := engine.CheckCtx(ctx); err != nil {
				return err
			}
			j := i
			for j < len(all) && all[j].Key == all[i].Key {
				j++
			}
			values := make([]string, 0, j-i)
			for k := i; k < j; k++ {
				values = append(values, all[k].Value)
			}
			if err := job.Reduce(all[i].Key, values, emit); err != nil {
				return fmt.Errorf("mapreduce: %s reduce: %w", job.Name, err)
			}
			i = j
		}
		out[p] = lines
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

func refCombineBucket(kvs []refKV, combine func(string, []string, func(k, v string)) error) ([]refKV, error) {
	if len(kvs) == 0 {
		return kvs, nil
	}
	sort.SliceStable(kvs, func(a, b int) bool { return kvs[a].Key < kvs[b].Key })
	var out []refKV
	emit := func(k, v string) { out = append(out, refKV{k, v}) }
	for i := 0; i < len(kvs); {
		j := i
		for j < len(kvs) && kvs[j].Key == kvs[i].Key {
			j++
		}
		values := make([]string, 0, j-i)
		for k := i; k < j; k++ {
			values = append(values, kvs[k].Value)
		}
		if err := combine(kvs[i].Key, values, emit); err != nil {
			return nil, err
		}
		i = j
	}
	return out, nil
}

func refPartition(key string, r int) int {
	h := fnv.New32a()
	h.Write([]byte(key))
	return int(h.Sum32() % uint32(r))
}
