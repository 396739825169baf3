package linalg

import "fmt"

// tiles.go holds the cache-blocking geometry of the packed GEMM family
// (DESIGN.md §17).
//
// The packed kernels block at three levels, Goto/BLIS style:
//
//	NC — a column strip of C/B sized for the outer cache level; one packed
//	     B block (KC×NC) is reused across every row block of the strip.
//	KC — the reduction-panel depth: one KC×nr B panel (KC·4·8 bytes) stays
//	     L1-resident while the micro-kernel streams row panels against it.
//	MC — the row-block height: one packed A block (MC×KC) stays L2-resident
//	     across the strip's column panels.
//
// Under them sits a fixed 4×4 register tile (mrTile×nrTile): sixteen
// accumulators the compiler keeps in registers across the whole KC panel.
// Tile sizes steer only cache locality — every output element accumulates
// its k terms in ascending order no matter the shape — so the shape is one
// compiled calibration, not a setting: no answer depends on it.

// tileShape is the (MC, KC, NC) cache-blocking geometry of the packed GEMM
// kernels.
type tileShape struct{ MC, KC, NC int }

// mrTile×nrTile is the register micro-tile: 16 unrolled accumulators. The
// pack routines interleave panels at exactly this width.
const (
	mrTile = 4
	nrTile = 4
)

// kernelTiles is the one shape the packed kernels block at: an 8 KiB L1
// B-panel slab (kc·nr doubles) and a 256 KiB L2 A block. A variable (not
// const) only so the bitwise property tests can pin a tiny shape that
// crosses every block boundary on small matrices.
var kernelTiles = tileShape{MC: 128, KC: 256, NC: 512}

// SetKernelAutotune is a no-op kept for the benchmark harness, its only caller.
func SetKernelAutotune(bool) {}

// KernelTileInfo describes the compiled tile shape for bench JSON headers.
func KernelTileInfo() string {
	return fmt.Sprintf("mr%d nr%d mc%d kc%d nc%d (default)",
		mrTile, nrTile, kernelTiles.MC, kernelTiles.KC, kernelTiles.NC)
}
