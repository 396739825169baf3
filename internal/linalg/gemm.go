package linalg

// gemm.go drives the packed, register-tiled kernels (DESIGN.md §17). Loop
// nest, outermost first:
//
//	jc over NC column strips of C      — one packed B block per strip & panel
//	kk over KC reduction panels        — ASCENDING: the bitwise contract
//	ic over MC row blocks              — one packed A block, L2-resident
//	jr over 4-wide packed B panels     — panel stays L1-resident...
//	ir over 4-wide packed A panels     — ...across all row panels
//	microKernel4x4 / microKernelEdge   — 16 register accumulators over k
//
// Parallel callers partition C rows (GEMM) or Gram rows (AᵀA) and hand
// each worker its own range plus its own pooled pack buffers; every output
// element is owned by exactly one worker and accumulates k ascending, so the
// result is bitwise identical at any worker count and to MulNaive.

// mulPackedRange accumulates C[rlo:rhi] += A[rlo:rhi]·B with the packed
// hierarchy at the kernelTiles shape. C rows in range must be zero (or hold a
// partial sum whose k prefix precedes kk=0, i.e. nothing) on entry.
func mulPackedRange(c, a, b *Matrix, rlo, rhi int) {
	ts, kdim, n := kernelTiles, a.Cols, b.Cols
	if rhi <= rlo || kdim == 0 || n == 0 {
		return
	}
	apack := GetSlice(packPanelLen(min(ts.MC, rhi-rlo), min(ts.KC, kdim)))
	bpack := GetSlice(packPanelLen(min(ts.NC, n), min(ts.KC, kdim)))
	for jc := 0; jc < n; jc += ts.NC {
		jce := min(jc+ts.NC, n)
		for kk := 0; kk < kdim; kk += ts.KC {
			kce := min(kk+ts.KC, kdim)
			packColPanels4(bpack, b, kk, kce, jc, jce)
			for ic := rlo; ic < rhi; ic += ts.MC {
				ice := min(ic+ts.MC, rhi)
				packRowPanels4(apack, a, ic, ice, kk, kce)
				mulBlock(c, apack, bpack, ic, ice, jc, jce, kce-kk)
			}
		}
	}
	PutSlice(apack)
	PutSlice(bpack)
}

// mulBlock runs the two panel loops and the micro-kernel for one
// (MC row block) × (NC column strip) × (KC panel) combination. ir is the
// inner loop so the current B panel (kc×4 doubles) stays hot in L1 while the
// A panels stream past it.
func mulBlock(c *Matrix, apack, bpack []float64, ic, ice, jc, jce, kc int) {
	for jr, pb := jc, 0; jr < jce; jr, pb = jr+4, pb+1 {
		jre := min(jr+4, jce)
		bp := bpack[pb*4*kc:]
		for ir, pa := ic, 0; ir < ice; ir, pa = ir+4, pa+1 {
			ire := min(ir+4, ice)
			ap := apack[pa*4*kc:]
			if ire-ir == 4 && jre-jr == 4 {
				microKernel4x4(kc, ap, bp, c, ir, jr)
			} else {
				microKernelEdge(kc, ap, bp, ire-ir, jre-jr, c, ir, jr)
			}
		}
	}
}

// gramPackedRange accumulates the upper-triangle Gram rows [jlo, jhi) of
// C = AᵀA through the same hierarchy: both operands are column panels of A,
// packed once per block. Column strips start at jlo (nothing left of the
// range's diagonal is needed) and row tiles skip panels that lie entirely
// below the diagonal; a diagonal-straddling tile may compute a few
// lower-triangle elements, which is harmless — the mirror pass overwrites
// them with bitwise-identical values (the products commute).
func gramPackedRange(c, a *Matrix, jlo, jhi int) {
	ts, kdim, n := kernelTiles, a.Rows, a.Cols
	if jhi <= jlo || kdim == 0 {
		return
	}
	apack := GetSlice(packPanelLen(min(ts.MC, jhi-jlo), min(ts.KC, kdim)))
	bpack := GetSlice(packPanelLen(min(ts.NC, n-jlo), min(ts.KC, kdim)))
	for jc := jlo; jc < n; jc += ts.NC {
		jce := min(jc+ts.NC, n)
		rowHi := min(jhi, jce)
		for kk := 0; kk < kdim; kk += ts.KC {
			kce := min(kk+ts.KC, kdim)
			packColPanels4(bpack, a, kk, kce, jc, jce)
			for ic := jlo; ic < rowHi; ic += ts.MC {
				ice := min(ic+ts.MC, rowHi)
				packColPanels4(apack, a, kk, kce, ic, ice)
				gramBlock(c, apack, bpack, ic, ice, jc, jce, kce-kk)
			}
		}
	}
	PutSlice(apack)
	PutSlice(bpack)
}

// gramBlock is mulBlock with the triangle skip: a B panel whose last column
// precedes the row tile's first row contributes only lower-triangle elements
// and is skipped whole.
func gramBlock(c *Matrix, apack, bpack []float64, ic, ice, jc, jce, kc int) {
	for ir, pa := ic, 0; ir < ice; ir, pa = ir+4, pa+1 {
		ire := min(ir+4, ice)
		ap := apack[pa*4*kc:]
		for jr, pb := jc, 0; jr < jce; jr, pb = jr+4, pb+1 {
			jre := min(jr+4, jce)
			if jre <= ir {
				continue
			}
			bp := bpack[pb*4*kc:]
			if ire-ir == 4 && jre-jr == 4 {
				microKernel4x4(kc, ap, bp, c, ir, jr)
			} else {
				microKernelEdge(kc, ap, bp, ire-ir, jre-jr, c, ir, jr)
			}
		}
	}
}
