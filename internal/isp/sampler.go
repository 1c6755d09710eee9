package isp

import "iotmap/internal/simrand"

// packetSampler models router packet sampling at rate 1:rate. Flows whose
// sampled packet count draws zero are invisible to the collector —
// exactly how low-volume subscriber lines drop out of the analysis
// during the outage (Section 6.1). The simulation keeps one per worker
// and Resets it per (line, day) instead of allocating.
type packetSampler struct {
	rate uint32
	rng  simrand.Source
}

// Reset re-seeds the sampler in place; rate 0 or 1 means no sampling.
// The "netflow-sampler" label predates the type's move into this
// package and is kept so every seeded record stays bit-identical.
func (s *packetSampler) Reset(rate uint32, seed int64) {
	s.rate = rate
	s.rng.Reset(simrand.SeedN(seed, "netflow-sampler"))
}

// Sample converts true flow counters into sampled counters; ok is false
// when the flow is unobserved.
func (s *packetSampler) Sample(bytes, packets uint64) (sb, sp uint64, ok bool) {
	if s.rate <= 1 {
		return bytes, packets, true
	}
	lambda := float64(packets) / float64(s.rate)
	n := s.rng.Poisson(lambda)
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
