package distlinalg

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"github.com/genbase/genbase/internal/cluster"
	"github.com/genbase/genbase/internal/datagen"
	"github.com/genbase/genbase/internal/linalg"
)

// Distribute scatters m from the coordinator (node 0) into
// DefaultNumericShards row blocks placed contiguously over the nodes,
// charging the scatter communication.
func Distribute(c *cluster.Cluster, m *linalg.Matrix) *DistMatrix {
	starts := partitionRows(m.Rows, DefaultNumericShards)
	shards := len(starts) - 1
	d := &DistMatrix{C: c, Starts: starts, Cols: m.Cols,
		Owners:   ShardOwners(shards, c.Nodes()),
		Replicas: ReplicaPlacement(shards, c.Nodes(), c.ReplicationFactor())}
	for s := 0; s+1 < len(starts); s++ {
		rows := starts[s+1] - starts[s]
		part := linalg.NewMatrix(rows, m.Cols)
		for r := 0; r < rows; r++ {
			copy(part.Row(r), m.Row(starts[s]+r))
		}
		d.Parts = append(d.Parts, part)
		for _, o := range d.Replicas[s] {
			if o != 0 {
				c.Send(0, o, int64(rows)*int64(m.Cols)*8)
			}
		}
	}
	c.Barrier()
	return d
}

func randMatrix(r, c int, seed uint64) *linalg.Matrix {
	rng := datagen.NewRNG(seed)
	m := linalg.NewMatrix(r, c)
	for i := range m.Data {
		m.Data[i] = rng.Float64()*2 - 1
	}
	return m
}

func dist(nodes int, m *linalg.Matrix) (*cluster.Cluster, *DistMatrix) {
	c := cluster.New(cluster.DefaultConfig(nodes))
	return c, Distribute(c, m)
}

func TestDistributePreservesData(t *testing.T) {
	m := randMatrix(17, 5, 1)
	_, d := dist(3, m)
	if d.Rows() != 17 || d.Cols != 5 {
		t.Fatalf("shape %dx%d", d.Rows(), d.Cols)
	}
	back, err := d.Gather()
	if err != nil {
		t.Fatal(err)
	}
	if linalg.MaxAbsDiff(m, back) != 0 {
		t.Fatal("scatter/gather corrupted data")
	}
}

func TestGramMatchesDense(t *testing.T) {
	f := func(seed uint64) bool {
		nodes := int(seed%4) + 1
		m := randMatrix(int((seed>>8)%30)+nodes, int((seed>>16)%8)+2, seed)
		_, d := dist(nodes, m)
		gram, err := d.Gram()
		if err != nil {
			return false
		}
		want := linalg.MulATA(m)
		return linalg.MaxAbsDiff(gram, want) < 1e-9*(1+want.FrobeniusNorm())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestCovarianceMatchesDense(t *testing.T) {
	m := randMatrix(40, 7, 5)
	_, d := dist(4, m)
	cov, err := d.Covariance()
	if err != nil {
		t.Fatal(err)
	}
	want := linalg.CovarianceP(m, 0)
	if linalg.MaxAbsDiff(cov, want) > 1e-10 {
		t.Fatalf("diff %v", linalg.MaxAbsDiff(cov, want))
	}
}

func TestColumnSumsMatchesDense(t *testing.T) {
	m := randMatrix(23, 6, 9)
	_, d := dist(3, m)
	sums, err := d.ColumnSums()
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 6; j++ {
		want := 0.0
		for i := 0; i < 23; i++ {
			want += m.At(i, j)
		}
		if math.Abs(sums[j]-want) > 1e-10 {
			t.Fatalf("col %d: %v vs %v", j, sums[j], want)
		}
	}
}

func TestXtYMatchesDense(t *testing.T) {
	m := randMatrix(19, 4, 11)
	y := randMatrix(19, 1, 12).Col(0)
	_, d := dist(2, m)
	got, err := d.XtY(y)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, m.Cols)
	for i := 0; i < m.Rows; i++ {
		linalg.Axpy(y[i], m.Row(i), want)
	}
	for j := range want {
		if math.Abs(got[j]-want[j]) > 1e-10 {
			t.Fatalf("j=%d: %v vs %v", j, got[j], want[j])
		}
	}
}

func TestLeastSquaresMatchesQR(t *testing.T) {
	m := randMatrix(60, 5, 21)
	beta0 := []float64{1, -2, 0.5, 3, -1}
	y := make([]float64, m.Rows)
	linalg.MatVecInto(y, m, beta0, 0)
	rng := datagen.NewRNG(22)
	for i := range y {
		y[i] += 0.01 * rng.NormFloat64()
	}
	want, err := linalg.LeastSquares(m, y)
	if err != nil {
		t.Fatal(err)
	}
	_, d := dist(3, m)
	got, err := d.LeastSquares(y)
	if err != nil {
		t.Fatal(err)
	}
	for j := range want.Coefficients {
		if math.Abs(got.Coefficients[j]-want.Coefficients[j]) > 1e-6 {
			t.Fatalf("coef %d: %v vs %v", j, got.Coefficients[j], want.Coefficients[j])
		}
	}
	if math.Abs(got.RSquared-want.RSquared) > 1e-8 {
		t.Fatalf("R² %v vs %v", got.RSquared, want.RSquared)
	}
}

func TestTopKSingularValuesMatchesDense(t *testing.T) {
	m := randMatrix(35, 12, 31)
	want, err := linalg.TopKSVD(m, 4, linalg.LanczosOptions{Reorthogonalize: true, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	_, d := dist(4, m)
	got, err := d.TopKSingularValues(4, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.SingularValues {
		if math.Abs(got[i]-want.SingularValues[i]) > 1e-6*(1+want.SingularValues[0]) {
			t.Fatalf("σ[%d]: %v vs %v", i, got[i], want.SingularValues[i])
		}
	}
}

func TestCommunicationCharged(t *testing.T) {
	m := randMatrix(30, 6, 41)
	c, d := dist(3, m)
	c.Reset()
	if _, err := d.Gram(); err != nil {
		t.Fatal(err)
	}
	if c.MessagesSent == 0 {
		t.Fatal("distributed gram must communicate")
	}
	if c.MakespanSeconds() <= 0 {
		t.Fatal("virtual time must advance")
	}
}

func TestSingleNodeNoNetwork(t *testing.T) {
	m := randMatrix(30, 6, 41)
	c, d := dist(1, m)
	c.Reset()
	if _, err := d.Covariance(); err != nil {
		t.Fatal(err)
	}
	if c.BytesSent != 0 {
		t.Fatal("single node should not use the network")
	}
}

func TestFromPartsNoScatterCost(t *testing.T) {
	c := cluster.New(cluster.DefaultConfig(2))
	parts := []*linalg.Matrix{randMatrix(5, 3, 1), randMatrix(4, 3, 2)}
	d := FromParts(c, parts)
	if d.Rows() != 9 || d.Cols != 3 {
		t.Fatalf("shape %dx%d", d.Rows(), d.Cols)
	}
	if c.BytesSent != 0 {
		t.Fatal("FromParts must not charge a scatter")
	}
}

// Scaling property (the heart of Figures 3–4): the same Gram computation on
// more nodes takes less virtual time, sub-linearly. A stepping clock makes
// every exec cost one tick, so each makespan is an exact function of shard
// placement and bytes sent: the busiest node's shard count in ticks, the
// partial Grams' gather to the coordinator, and one tick for the reduction.
func TestGramVirtualTimeScales(t *testing.T) {
	const tick = 10 * time.Millisecond
	m := randMatrix(120, 20, 77)
	times := map[int]float64{}
	for _, nodes := range []int{1, 2, 4} {
		cfg := cluster.DefaultConfig(nodes)
		now := time.Unix(0, 0)
		cfg.Now = func() time.Time {
			now = now.Add(tick)
			return now
		}
		c := cluster.New(cfg)
		d := Distribute(c, m)
		c.Reset() // exclude scatter, as load time is excluded in the paper
		if _, err := d.Gram(); err != nil {
			t.Fatal(err)
		}
		perNode := make([]int, nodes)
		for _, owner := range ShardOwners(len(d.Parts), nodes) {
			perNode[owner]++
		}
		gather := 0.0
		if nodes > 1 {
			gather = 100e-6 + float64(m.Cols*m.Cols*8)/125e6 // the gigabit link
		}
		want := float64(slices.Max(perNode))*tick.Seconds() + gather + tick.Seconds()
		times[nodes] = c.MakespanSeconds()
		if math.Abs(times[nodes]-want) > 1e-12 {
			t.Fatalf("%d nodes: makespan %v, want %v (shards per node %v)", nodes, times[nodes], want, perNode)
		}
	}
	if !(times[4] < times[2] && times[2] < times[1]) {
		t.Fatalf("no speedup: %v", times)
	}
	// Sub-linear: 4 nodes must not be 4× faster (communication overhead).
	if times[1]/times[4] >= 4 {
		t.Fatalf("scaling suspiciously ideal: %v", times)
	}
}

func TestPartitionRowsCoversAll(t *testing.T) {
	f := func(n uint16, nodes uint8) bool {
		blocks := int(nodes%7) + 1
		starts := PartitionRows(int(n), blocks)
		if starts[0] != 0 || starts[len(starts)-1] != int(n) {
			return false
		}
		for i := 1; i < len(starts); i++ {
			if starts[i] < starts[i-1] {
				return false
			}
			// Balanced within one item.
			if int(n) >= blocks {
				size := starts[i] - starts[i-1]
				if size < int(n)/blocks || size > int(n)/blocks+1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMoreNodesShrinkComputeMakespan(t *testing.T) {
	// A fixed amount of divisible work should take less virtual time on more
	// nodes — the core property behind Figure 3.
	work := func(nodes int) float64 {
		c := cluster.New(cluster.DefaultConfig(nodes))
		total := 80
		starts := PartitionRows(total, nodes)
		for i := 0; i < nodes; i++ {
			units := starts[i+1] - starts[i]
			c.Charge(i, float64(units)*0.01)
		}
		c.Barrier()
		return c.MakespanSeconds()
	}
	t1, t2, t4 := work(1), work(2), work(4)
	if !(t4 < t2 && t2 < t1) {
		t.Fatalf("scaling broken: %v %v %v", t1, t2, t4)
	}
}

func TestShardOwnersContiguousAndComplete(t *testing.T) {
	cases := []struct{ shards, nodes int }{
		{4, 1}, {4, 2}, {4, 3}, {4, 4}, {4, 8}, {7, 3}, {48, 48}, {2, 5},
	}
	for _, c := range cases {
		owners := ShardOwners(c.shards, c.nodes)
		if len(owners) != c.shards {
			t.Fatalf("%v: %d owners", c, len(owners))
		}
		for i := 1; i < len(owners); i++ {
			if owners[i] < owners[i-1] {
				t.Fatalf("%v: owners not monotonic: %v", c, owners)
			}
		}
		for _, o := range owners {
			if o < 0 || o >= c.nodes {
				t.Fatalf("%v: owner %d out of range", c, o)
			}
		}
		if c.shards >= c.nodes && len(owners) > 0 && owners[len(owners)-1] != c.nodes-1 {
			t.Fatalf("%v: last node idle with enough shards: %v", c, owners)
		}
	}
}

func TestSplitIDsByBlock(t *testing.T) {
	starts := []int{0, 3, 5, 5, 9}
	ids := []int64{0, 2, 3, 6, 8}
	got := SplitIDsByBlock(starts, ids)
	want := [][]int64{{0, 2}, {3}, {}, {6, 8}}
	if len(got) != len(want) {
		t.Fatalf("%d blocks", len(got))
	}
	for s := range want {
		if len(got[s]) != len(want[s]) {
			t.Fatalf("block %d: %v want %v", s, got[s], want[s])
		}
		for i := range want[s] {
			if got[s][i] != want[s][i] {
				t.Fatalf("block %d: %v want %v", s, got[s], want[s])
			}
		}
	}
}

// The shard partition — not the node count — determines the numerics: the
// same matrix reduced on 1, 2, 3 and 8 nodes yields bitwise-identical Gram,
// covariance, column-sum and least-squares results, because per-shard
// partials combine in shard order regardless of placement.
func TestReductionsInvariantToNodeCount(t *testing.T) {
	m := randMatrix(57, 9, 13)
	y := randMatrix(57, 1, 14).Col(0)
	type snap struct {
		gram, cov *linalg.Matrix
		sums      []float64
		beta      []float64
	}
	var ref snap
	for _, nodes := range []int{1, 2, 3, 8} {
		c := cluster.New(cluster.DefaultConfig(nodes))
		d := Distribute(c, m)
		gram, err := d.Gram()
		if err != nil {
			t.Fatal(err)
		}
		cov, err := d.Covariance()
		if err != nil {
			t.Fatal(err)
		}
		sums, err := d.ColumnSums()
		if err != nil {
			t.Fatal(err)
		}
		ls, err := d.LeastSquares(y)
		if err != nil {
			t.Fatal(err)
		}
		if nodes == 1 {
			ref = snap{gram, cov, sums, ls.Coefficients}
			continue
		}
		if linalg.MaxAbsDiff(gram, ref.gram) != 0 || linalg.MaxAbsDiff(cov, ref.cov) != 0 {
			t.Fatalf("%d nodes: matrix reduction diverges bitwise", nodes)
		}
		for j := range sums {
			if sums[j] != ref.sums[j] {
				t.Fatalf("%d nodes: column sum %d diverges bitwise", nodes, j)
			}
		}
		for j := range ls.Coefficients {
			if ls.Coefficients[j] != ref.beta[j] {
				t.Fatalf("%d nodes: coefficient %d diverges bitwise", nodes, j)
			}
		}
	}
}
