package isp

import (
	"testing"

	"iotmap/internal/simrand"
)

func newSampler(rate uint32, seed int64) *packetSampler {
	s := &packetSampler{rate: rate, exp: expTable(rate)}
	s.Reset(seed)
	return s
}

// referenceSample is the sampler before expTable: Poisson(packets/rate)
// on the same stream.
func referenceSample(rng *simrand.Source, rate uint32, bytes, packets uint64) (uint64, uint64, bool) {
	n := rng.Poisson(float64(packets) / float64(rate))
	if n == 0 {
		return 0, 0, false
	}
	sb := uint64(float64(bytes) / float64(packets) * float64(n))
	return max(sb, 1), uint64(n), true
}

// TestSamplerTableMatchesPoisson: on both sides of the table's cap, and
// past the Knuth range, the tabulated sampler draws what Poisson(λ)
// draws on the same stream.
func TestSamplerTableMatchesPoisson(t *testing.T) {
	for _, rate := range []uint32{100, 1024, 2000} {
		s := newSampler(rate, 5)
		ref := simrand.New(simrand.SeedN(5, "netflow-sampler"))
		for _, p := range []uint64{1, 3, 47, 250, 6400, 6401, 65535, 65536, 69000, 131072, 200000} {
			for k := 0; k < 20; k++ {
				bytes := p*900 + uint64(k)
				gb, gp, gok := s.Sample(bytes, p)
				wb, wp, wok := referenceSample(ref, rate, bytes, p)
				if gb != wb || gp != wp || gok != wok {
					t.Fatalf("rate %d, %d packets: table (%d, %d, %v), Poisson (%d, %d, %v)", rate, p, gb, gp, gok, wb, wp, wok)
				}
			}
		}
	}
}

// TestExpTableCapped: the table stops at maxExpTable entries however
// sparse the sampling, and does not exist without sampling.
func TestExpTableCapped(t *testing.T) {
	if n := len(expTable(100)); n != 6401 {
		t.Fatalf("1:100 table has %d entries, want 6401 (λ up to 64)", n)
	}
	if n := len(expTable(1_000_000)); n != maxExpTable {
		t.Fatalf("1:10⁶ table has %d entries, want the %d cap", n, maxExpTable)
	}
	if expTable(1) != nil {
		t.Fatal("unsampled network built a table")
	}
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
