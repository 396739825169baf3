package xeonphi

import "testing"

func TestOffloadSpeedsUpCompute(t *testing.T) {
	host, gemmRate := 0.004, 2.7
	compute, _ := Offload(KindGEMM, host, 1<<20, 1<<10)
	if want := host / gemmRate; compute != want {
		t.Fatalf("compute=%v, want %v", compute, want)
	}
}

func TestOffloadChargesTransfer(t *testing.T) {
	// 6 GiB over a 6 GiB/s link is 1 s, plus a setup latency each way.
	_, transfer := Offload(KindGEMM, 0, 6<<30, 0)
	latency := 50e-6
	if want := 2*latency + 1; transfer != want {
		t.Fatalf("transfer=%v, want %v", transfer, want)
	}
	// The transfer charge depends only on the bytes moved.
	if _, again := Offload(KindBicluster, 1, 3<<30, 3<<30); again != transfer {
		t.Fatalf("transfer=%v for the same bytes split both ways, want %v", again, transfer)
	}
}

// Every kind's device time is its host time over Table 1's calibrated rate.
func TestRatesPerKind(t *testing.T) {
	for kind, want := range map[string]float64{
		KindGEMM: 2.7, KindLanczos: 3.0, KindRank: 1.45, KindBicluster: 1.18,
	} {
		if compute, _ := Offload(kind, 1, 0, 0); compute != 1/want {
			t.Errorf("%s: compute=%v for 1 host second, want 1/%v", kind, compute, want)
		}
	}
}

func TestBiclusterBarelyAccelerated(t *testing.T) {
	gemm, _ := Offload(KindGEMM, 0.003, 0, 0)
	bic, _ := Offload(KindBicluster, 0.003, 0, 0)
	if bic <= gemm || bic >= 0.003 {
		t.Fatalf("bicluster %v should sit between gemm %v and the host's 0.003", bic, gemm)
	}
}

func TestSpillPenalty(t *testing.T) {
	host, gemmRate := 0.002, 2.7
	fits, _ := Offload(KindGEMM, host, MemBytes, 0)
	spills, _ := Offload(KindGEMM, host, MemBytes+1, 0)
	if want := host / gemmRate; fits != want || spills != want*SpillPenalty {
		t.Fatalf("fits=%v spills=%v, want %v and %v", fits, spills, want, want*SpillPenalty)
	}
}

func TestUnknownKindUsesDefaultRate(t *testing.T) {
	host := 0.002
	if c, _ := Offload("mystery", host, 0, 0); c != host/DefaultRate {
		t.Fatalf("c=%v, want %v", c, host/DefaultRate)
	}
}
