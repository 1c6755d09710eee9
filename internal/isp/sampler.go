package isp

import (
	"math"

	"iotmap/internal/simrand"
)

// packetSampler models router packet sampling at rate 1:rate. Flows whose
// sampled packet count draws zero are invisible to the collector —
// exactly how low-volume subscriber lines drop out of the analysis
// during the outage (Section 6.1). The simulation keeps one per worker
// and Resets it per (line, day) instead of allocating.
type packetSampler struct {
	rate uint32    // 0 or 1: no sampling
	exp  []float64 // the Network's expTable for rate, shared read-only
	rng  simrand.Source
}

// maxExpTable caps expTable, so a 1:10⁶ vantage does not tabulate
// 64·10⁶ entries; larger packet counts take the untabulated Poisson.
const maxExpTable = 1 << 16

// expTable tabulates exp(-p/rate) for every packet count p whose mean
// p/rate is in Poisson's Knuth range (≤ 64), turning the sampler's
// per-flow math.Exp into an index.
func expTable(rate uint32) []float64 {
	if rate <= 1 {
		return nil
	}
	tab := make([]float64, min(64*uint64(rate)+1, maxExpTable))
	for p := range tab {
		tab[p] = math.Exp(-(float64(p) / float64(rate)))
	}
	return tab
}

// Reset re-seeds the sampler in place. The "netflow-sampler" label
// predates the type's move into this package and is kept so every
// seeded record stays bit-identical.
func (s *packetSampler) Reset(seed int64) {
	s.rng.Reset(simrand.SeedN(seed, "netflow-sampler"))
}

// Sample converts true flow counters into sampled counters; ok is false
// when the flow is unobserved.
func (s *packetSampler) Sample(bytes, packets uint64) (sb, sp uint64, ok bool) {
	if s.rate <= 1 {
		return bytes, packets, true
	}
	var n int
	if packets > 0 && packets < uint64(len(s.exp)) {
		n = s.rng.PoissonExp(s.exp[packets])
	} else {
		n = s.rng.Poisson(float64(packets) / float64(s.rate))
	}
	if n == 0 {
		return 0, 0, false
	}
	sp = uint64(n)
	perPkt := float64(bytes) / float64(packets)
	sb = uint64(perPkt * float64(n))
	if sb == 0 {
		sb = 1
	}
	return sb, sp, true
}
