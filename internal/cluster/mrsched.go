package cluster

import (
	"context"
	"strings"
)

// MRScheduler places MapReduce waves onto the virtual cluster: task i of a
// wave runs on node i mod N, waves end with a barrier, and shuffle traffic
// is charged to the network. It also splits the virtual makespan into
// data-management vs analytics time by job-name prefix ("hive-" jobs are
// DM, "mahout-" jobs analytics) so the multi-node Hadoop configuration can
// report the paper's phase breakdown.
type MRScheduler struct {
	C *Cluster

	// lastTasks remembers each wave's task→node placement so ShuffleCost can
	// route mapper→reducer traffic over the same nodes.
	lastMapNodes []int

	DMSeconds        float64
	AnalyticsSeconds float64
	lastSnapshot     float64
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
		node := nodes[i]
		start := s.C.now()
		if err := task(i); err != nil {
			return err
		}
		s.C.Charge(node, s.C.now().Sub(start).Seconds())
	}
	if strings.HasSuffix(phase, ":map") {
		s.lastMapNodes = nodes
	}
	s.C.Barrier()
	s.account(phase)
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

// account attributes makespan growth since the last snapshot to DM or
// analytics based on the job-name prefix carried in phase.
func (s *MRScheduler) account(phase string) {
	now := s.C.MakespanSeconds()
	delta := now - s.lastSnapshot
	s.lastSnapshot = now
	if strings.HasPrefix(phase, "mahout-") {
		s.AnalyticsSeconds += delta
	} else {
		s.DMSeconds += delta
	}
}

// ResetAccounting zeroes the phase attribution (between queries).
func (s *MRScheduler) ResetAccounting() {
	s.DMSeconds = 0
	s.AnalyticsSeconds = 0
	s.lastSnapshot = s.C.MakespanSeconds()
}
