package cluster

import "context"

// SteppedConfig exposes steppedConfig to the external cluster_test package.
var SteppedConfig = steppedConfig

// LiveNodes returns the number of nodes that have not fail-stopped.
func (c *Cluster) LiveNodes() int {
	n := 0
	for _, d := range c.dead {
		if !d {
			n++
		}
	}
	return n
}

// ExecAllCtx runs fn(ctx, node) once per node, each as one ExecCtx step,
// under RunNodes' scheduling and error semantics.
func (c *Cluster) ExecAllCtx(ctx context.Context, fn func(ctx context.Context, node int) error) error {
	return c.RunNodes(ctx, func(cctx context.Context, i int) error {
		return c.ExecCtx(cctx, i, func() error { return fn(cctx, i) })
	})
}
