package mapreduce

import (
	"context"
	"strings"
	"testing"

	"github.com/genbase/genbase/internal/linalg"
	"github.com/genbase/genbase/internal/plan"
)

// Every reader of text — table lines in the mappers, shuffle values in the
// reducers, reducer output in the drivers — must turn a malformed record into
// a "mapreduce: malformed record" error: never an index panic, never a
// silently zero field. Each reader gets the same five kinds of bad line.

// textEngine is a loaded 2-patient × 2-gene × 2-term engine whose tables are
// the given lines.
func textEngine(patients, genes, micro, goLines []string) *Engine {
	return &Engine{
		Sched:    LocalScheduler{Workers: 1},
		patients: patients, genes: genes,
		micro: SplitLines(micro, 2), goLines: SplitLines(goLines, 2),
		numPats: 2, numGenes: 2, numTerms: 2,
	}
}

var (
	goodPatients = []string{"0,30,1,94000,3,0.5", "1,40,0,94001,4,1.5"}
	goodGenes    = []string{"0,1,100,200,7", "1,0,300,400,9"}
	goodMicro    = []string{"0,0,1.5", "1,0,2.5", "0,1,3.5", "1,1,4.5"}
	goodGO       = []string{"0,0,1", "1,1,1", "1,0,0"}
)

// withFirst returns lines with the first replaced.
func withFirst(lines []string, first string) []string {
	return append([]string{first}, lines[1:]...)
}

func TestMalformedRecordsAreErrors(t *testing.T) {
	ctx := context.Background()
	agePred := []plan.Pred{{Col: plan.ColAge, Op: plan.CmpLT, Val: 100}}
	groupReader := func(fn func([]byte, [][]byte, *Emitter) error) func(string) error {
		return func(value string) error {
			return fn([]byte("k"), [][]byte{[]byte(value)}, &Emitter{ctx: ctx, runs: make([]run, 1)})
		}
	}
	readers := []struct {
		name string
		read func(line string) error
		good string
		bad  map[string]string // kind of damage → line
	}{
		{
			name: "parseRowLine",
			read: func(l string) error { _, err := parseRowLine(l, make([]float64, 2), 4); return err },
			good: "0000000001\t1.5,2.5",
			bad: map[string]string{"no tab": "0000000001", "short row": "0000000001\t1.5", "extra field": "0000000001\t1,2,3",
				"extra tab": "0000000001\t1,2\t3", "non-numeric id": "abc\t1,2", "empty value": "0000000001\t", "id out of range": "0000000004\t1,2"},
		},
		{
			name: "readVector",
			read: func(l string) error { return readVector([][]string{{l}}, make([]float64, 2)) },
			good: "0000000001\t2.5",
			bad: map[string]string{"no tab": "0000000001", "extra field": "0000000001\t1\t2", "non-numeric id": "x\t1",
				"empty id": "\t1", "empty value": "0000000001\t", "id out of range": "0000000002\t1"},
		},
		{
			name: "readGram",
			read: func(l string) error { return readGram([][]string{{l}}, linalg.NewMatrix(2, 2), make([]float64, 2)) },
			good: "g:0000000000:0000000001\t2.5",
			bad: map[string]string{"no tab": "g:0000000000:0000000001", "short key": "g:0000000000\t1", "extra field": "g:0:1:1\t1",
				"non-numeric id": "g:x:0000000001\t1", "empty value": "g:0000000000:0000000001\t",
				"id out of range": "y:0000000002\t1"},
		},
		{
			name: "collectIDs",
			read: func(l string) error { _, err := collectIDs([][]string{{l}}); return err },
			good: "0000000001\t1",
			bad:  map[string]string{"no tab": "0000000001", "extra field": "0000000001\t1\t1", "non-numeric id": "x\t1", "empty id": "\t1"},
		},
		{
			name: "sumReduce",
			read: groupReader(sumReduce),
			good: "2.5",
			bad:  map[string]string{"non-numeric value": "abc", "empty value": ""},
		},
		{
			name: "sumCountReduce",
			read: groupReader(sumCountReduce),
			good: "2.5:1",
			bad:  map[string]string{"no colon": "5", "non-numeric sum": "a:1", "empty count": "1:"},
		},
		{
			name: "SelectIDs",
			read: func(l string) error {
				_, err := textEngine(withFirst(goodPatients, l), goodGenes, goodMicro, goodGO).SelectIDs(ctx, plan.TablePatients, agePred)
				return err
			},
			good: goodPatients[0],
			bad: map[string]string{"no comma": "garbage", "short row": "0,30,1", "extra field": "0,30,1,94000,3,0.5,9",
				"non-numeric id": "abc,30,1,94000,3,0.5", "empty value": "0,,1,94000,3,0.5"},
		},
		{
			name: "ScanFloats",
			read: func(l string) error {
				_, err := textEngine(withFirst(goodPatients, l), goodGenes, goodMicro, goodGO).ScanFloats(ctx, plan.TablePatients, plan.ColDrugResponse, nil)
				return err
			},
			good: goodPatients[0],
			bad: map[string]string{"no comma": "garbage", "short row": "0,30,1", "extra field": "0,30,1,94000,3,0.5,9",
				"non-numeric id": "x,30,1,94000,3,0.5", "empty value": "0,30,1,94000,3,", "id out of range": "2,30,1,94000,3,0.5"},
		},
		{
			name: "GeneMeta",
			read: func(l string) error {
				_, err := textEngine(goodPatients, withFirst(goodGenes, l), goodMicro, goodGO).GeneMeta(ctx)
				return err
			},
			good: goodGenes[0],
			bad: map[string]string{"no comma": "garbage", "short row": "0,1,100", "extra field": "0,1,100,200,7,8",
				"non-numeric id": "x,1,100,200,7", "empty value": "0,1,100,200,", "id out of range": "2,1,100,200,7"},
		},
		{
			name: "Pivot",
			read: func(l string) error {
				_, err := textEngine(goodPatients, goodGenes, withFirst(goodMicro, l), goodGO).Pivot(ctx, nil, nil)
				return err
			},
			good: goodMicro[0],
			bad: map[string]string{"no comma": "garbage", "short row": "0,0", "extra field": "0,0,1.5,9",
				"non-numeric gene": "x,0,1.5", "non-numeric patient": "0,x,1.5", "empty value": "0,0,", "non-numeric value": "0,0,abc"},
		},
		{
			name: "SampleMeans",
			read: func(l string) error {
				_, _, err := textEngine(goodPatients, goodGenes, withFirst(goodMicro, l), goodGO).SampleMeans(ctx, 1)
				return err
			},
			good: goodMicro[0],
			bad: map[string]string{"no comma": "garbage", "short row": "0,0", "extra field": "0,0,1.5,9",
				"non-numeric gene": "x,0,1.5", "non-numeric patient": "0,x,1.5", "empty value": "0,0,", "gene out of range": "2,0,1.5"},
		},
		{
			name: "GOMembers",
			read: func(l string) error {
				_, err := textEngine(goodPatients, goodGenes, goodMicro, withFirst(goodGO, l)).GOMembers(ctx)
				return err
			},
			good: goodGO[0],
			bad: map[string]string{"no comma": "garbage", "short row": "0,0", "extra field": "0,0,1,1",
				"non-numeric gene": "x,0,1", "non-numeric term": "0,x,1", "empty value": ",0,1", "term out of range": "0,2,1"},
		},
	}
	for _, r := range readers {
		if err := r.read(r.good); err != nil {
			t.Errorf("%s rejects the well-formed %q: %v", r.name, r.good, err)
		}
		for kind, line := range r.bad {
			t.Run(r.name+"/"+kind, func(t *testing.T) {
				err := r.read(line)
				if err == nil || !strings.Contains(err.Error(), "mapreduce: malformed record") {
					t.Fatalf("%q: err=%v, want a malformed-record error", line, err)
				}
			})
		}
	}
}
