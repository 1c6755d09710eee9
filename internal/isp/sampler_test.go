package isp

import "testing"

func newSampler(rate uint32, seed int64) *packetSampler {
	s := &packetSampler{}
	s.Reset(rate, seed)
	return s
}

func TestSamplerNoSampling(t *testing.T) {
	s := newSampler(1, 1)
	b, p, ok := s.Sample(1000, 10)
	if !ok || b != 1000 || p != 10 {
		t.Fatalf("identity sampling = %d,%d,%v", b, p, ok)
	}
}

func TestSamplerStatistics(t *testing.T) {
	const rate = 100
	s := newSampler(rate, 42)
	var estTotal, trueTotal uint64
	misses := 0
	const flows = 3000
	for i := 0; i < flows; i++ {
		trueBytes := uint64(200_000)
		truePkts := uint64(200)
		trueTotal += trueBytes
		sb, _, ok := s.Sample(trueBytes, truePkts)
		if !ok {
			misses++
			continue
		}
		estTotal += sb * rate
	}
	// λ=2 per flow → ~13.5% of flows invisible, but volume estimate
	// should be within a few percent.
	if misses == 0 || misses > flows/4 {
		t.Fatalf("misses = %d", misses)
	}
	ratio := float64(estTotal) / float64(trueTotal)
	if ratio < 0.93 || ratio > 1.07 {
		t.Fatalf("volume estimate off: ratio = %f", ratio)
	}
}

func TestSamplerTinyFlowsVanish(t *testing.T) {
	s := newSampler(1000, 7)
	vanished := 0
	for i := 0; i < 500; i++ {
		if _, _, ok := s.Sample(60, 1); !ok {
			vanished++
		}
	}
	if vanished < 450 {
		t.Fatalf("tiny flows should mostly vanish at 1:1000, got %d/500", vanished)
	}
}
