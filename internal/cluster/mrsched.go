package cluster

import (
	"context"
	"strings"
)

// MRScheduler places MapReduce waves onto the virtual cluster: task i of a
// wave runs on node i mod N, waves end with a barrier, and shuffle traffic
// is charged to the network. One scheduler serves one query's cluster.
type MRScheduler struct {
	C *Cluster

	// lastMapNodes remembers the map wave's task→node placement so
	// ShuffleCost can route mapper→reducer traffic over the same nodes.
	lastMapNodes []int
}

// RunWave implements mapreduce.TaskScheduler.
func (s *MRScheduler) RunWave(ctx context.Context, phase string, n int, task func(i int) error) error {
	nodes := make([]int, n)
	for i := 0; i < n; i++ {
		nodes[i] = i % s.C.Nodes()
	}
	for i := 0; i < n; i++ {
		select {
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		sec, err := s.C.Measure(func() error { return task(i) })
		if err != nil {
			return err
		}
		s.C.Charge(nodes[i], sec)
	}
	if strings.HasSuffix(phase, ":map") {
		s.lastMapNodes = nodes
	}
	s.C.Barrier()
	return nil
}

// ShuffleCost implements mapreduce.TaskScheduler: bytes[m][r] moves from
// mapper m's node to reducer r's node.
func (s *MRScheduler) ShuffleCost(bytes [][]int64) {
	for m := range bytes {
		src := m % s.C.Nodes()
		if s.lastMapNodes != nil && m < len(s.lastMapNodes) {
			src = s.lastMapNodes[m]
		}
		for r, b := range bytes[m] {
			dst := r % s.C.Nodes()
			if b > 0 {
				s.C.Send(src, dst, b)
			}
		}
	}
	s.C.Barrier()
}
