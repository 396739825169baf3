package cluster

// SteppedConfig exposes steppedConfig to the external cluster_test package.
var SteppedConfig = steppedConfig
