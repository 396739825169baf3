// Package xeonphi models the Intel Xeon Phi 5110P coprocessor used in the
// paper's §5 hardware-acceleration experiments. No accelerator is attached
// to this machine, so the caller runs the real kernel on the host (answers
// stay correct), times it once on the clock it already owns, and Offload
// turns that host sample into device time: host seconds ÷ per-kernel rate,
// plus explicit PCIe transfer charges ("data must be copied into the memory
// of the Intel Xeon Phi coprocessor before it is operated on"). The rates
// are calibrated to land in the paper's observed 1.2–2.9× analytics-speedup
// band (Table 1); biclustering's rate is near 1 because the algorithm is
// branchy scalar code that "cannot be expected to show significant speedup
// on any accelerator".
package xeonphi

// Kernel kinds, the families the device speeds up differently.
const (
	KindGEMM      = "gemm"      // covariance (pdgemm auto-offload)
	KindLanczos   = "lanczos"   // SVD
	KindRank      = "rank"      // statistics / Wilcoxon
	KindBicluster = "bicluster" // biclustering
)

// The calibrated 5110P: 60 cores at 8 GB, PCIe 2.0 x16 (~6 GiB/s). Device
// memory is scaled 1/20 with the datasets.
const (
	// DefaultRate is the compute-rate multiplier of an unknown kernel kind.
	DefaultRate = 2.0
	// LinkBandwidth is the PCIe bandwidth in bytes/second.
	LinkBandwidth = 6 << 30
	// LinkLatencySec is the per-transfer setup latency.
	LinkLatencySec = 50e-6
	// MemBytes is the device memory; kernels whose input exceeds it pay the
	// SpillPenalty on compute ("data sets that do not fit in this memory
	// will suffer excessive data movement costs during computation").
	MemBytes = 8 << 30 / 20
	// SpillPenalty multiplies compute time when the input spills.
	SpillPenalty = 3.0
)

// rate is a kernel kind's compute-rate multiplier, chosen so the single-node
// analytics speedups land near Table 1's 2.60 (covariance), 2.93 (SVD), 1.40
// (statistics) and 1.18 (biclustering).
func rate(kind string) float64 {
	switch kind {
	case KindGEMM:
		return 2.7
	case KindLanczos:
		return 3.0
	case KindRank:
		return 1.45
	case KindBicluster:
		return 1.18
	}
	return DefaultRate
}

// Offload models a kernel of the given kind that took hostSec on the host,
// after moving inBytes to the device and outBytes back: it returns the
// device compute and PCIe transfer seconds. A parallel host kernel simply
// yields a smaller hostSec; the rate divides whatever was measured
// (DESIGN.md §5, §9).
func Offload(kind string, hostSec float64, inBytes, outBytes int64) (compute, transfer float64) {
	compute = hostSec / rate(kind)
	if inBytes > MemBytes {
		compute *= SpillPenalty
	}
	transfer = 2*LinkLatencySec + float64(inBytes+outBytes)/LinkBandwidth
	return compute, transfer
}
