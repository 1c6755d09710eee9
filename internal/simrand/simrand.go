// Package simrand provides deterministic random-number utilities shared by
// every stochastic component of the simulation. All randomness in the
// repository flows through a Source seeded explicitly, so a world built
// twice from the same seed is byte-for-byte identical.
//
// The generator core is a PCG seeded through a splitmix64 expansion, so
// constructing a Source costs a few multiplications instead of the 607-word
// state initialization of the legacy math/rand source. Derive is called per
// line/device/day in the hot simulation loops and must stay O(1).
//
// The package also carries the small set of distributions the traffic and
// deployment models need: log-normal volumes, Zipf-like popularity, and the
// diurnal activity curves described in Section 5.3 of the paper.
package simrand

import (
	"math"
	"math/rand/v2"
)

// splitmix64 is the SplitMix64 output function: a cheap bijective mixer
// that turns one 64-bit seed into a well-distributed stream of state words
// (Steele et al., "Fast splittable pseudorandom number generators").
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Source is a deterministic random source backed by a PCG generator.
// Callers never touch the global generator.
//
// The generator state is embedded by value so a Source is a single
// allocation — and Reset re-seeds one in place with zero allocations,
// which the simulation's per-(line, day) derivation loops depend on.
// Because the embedded generator wraps an internal pointer, a Source
// must not be copied once used; share it as *Source.
type Source struct {
	pcg rand.PCG
	r   rand.Rand
	// rOK records that r wraps &pcg (done once, on the first Reset).
	rOK bool
	// zc caches Zipf samplers keyed by their parameters; the traffic
	// model draws from the same one or two distributions millions of
	// times. Reset keeps the cache: a sampler depends only on its
	// parameters, never on the seed.
	zc map[zipfKey]*zipf
}

// New returns a Source seeded with seed. Two state words are expanded from
// the seed with splitmix64, so every distinct seed yields an independent
// PCG stream and seeding is O(1).
func New(seed int64) *Source {
	s := &Source{}
	s.Reset(seed)
	return s
}

// Reset re-seeds s in place, yielding exactly the stream New(seed)
// would — New(seed) and a Reset(seed) of any existing Source are
// interchangeable. Hot loops that derive a fresh stream per
// (line, device, day) keep one Source per worker and Reset it instead
// of allocating: Reset(SeedN(...)) ≡ DeriveN(...), allocation-free.
func (s *Source) Reset(seed int64) {
	s1 := splitmix64(uint64(seed))
	s2 := splitmix64(s1)
	s.pcg.Seed(s1, s2)
	if !s.rOK {
		s.r = *rand.New(&s.pcg)
		s.rOK = true
	}
}

// FNV-1a, inlined: the hash/fnv package costs an interface allocation per
// Hash, which matters when Derive runs per line/device/day.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvByte(h uint64, c byte) uint64 { return (h ^ uint64(c)) * fnvPrime64 }

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = fnvByte(h, s[i])
	}
	return h
}

func fnvU64(h uint64, v uint64) uint64 {
	for shift := 56; shift >= 0; shift -= 8 {
		h = fnvByte(h, byte(v>>shift))
	}
	return h
}

// Derive returns a new independent Source whose seed is derived from the
// parent seed and the given labels. Deriving with the same labels always
// yields the same stream, which lets subsystems (DNS churn, traffic, scan
// jitter) evolve independently without sharing one fragile sequence.
func Derive(seed int64, labels ...string) *Source {
	h := fnvU64(fnvOffset64, uint64(seed))
	for _, l := range labels {
		h = fnvString(fnvByte(h, 0), l)
	}
	return New(int64(h))
}

// SeedN derives a child seed from a parent seed, one label, and integer
// qualifiers — the allocation-free core of DeriveN for hot loops that
// would otherwise fmt.Sprint their line/device/day indices into labels.
func SeedN(seed int64, label string, nums ...int64) int64 {
	h := fnvString(fnvByte(fnvU64(fnvOffset64, uint64(seed)), 0), label)
	for _, n := range nums {
		h = fnvU64(fnvByte(h, 0), uint64(n))
	}
	return int64(h)
}

// Label is a (seed, label) pair hashed once, for hot loops that derive
// a stream per (line, day) from it: NewLabel(seed, label).SeedN(nums...)
// == SeedN(seed, label, nums...).
type Label uint64

// NewLabel hashes seed and label.
func NewLabel(seed int64, label string) Label {
	return Label(fnvString(fnvByte(fnvU64(fnvOffset64, uint64(seed)), 0), label))
}

// SeedN is SeedN(seed, label, nums...).
func (l Label) SeedN(nums ...int64) int64 {
	h := uint64(l)
	for _, n := range nums {
		h = fnvU64(fnvByte(h, 0), uint64(n))
	}
	return int64(h)
}

// DeriveN is Derive with integer qualifiers: DeriveN(seed, "line", id, day)
// replaces Derive(seed, "line", fmt.Sprint(id), fmt.Sprint(day)) without
// the string formatting. Same label+numbers always yield the same stream.
func DeriveN(seed int64, label string, nums ...int64) *Source {
	return New(SeedN(seed, label, nums...))
}

// Intn returns an int in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int { return s.r.IntN(n) }

// Float64 returns a float64 in [0, 1).
func (s *Source) Float64() float64 { return s.r.Float64() }

// NormFloat64 returns a standard normal variate.
func (s *Source) NormFloat64() float64 { return s.r.NormFloat64() }

// Perm returns a random permutation of [0, n).
func (s *Source) Perm(n int) []int { return s.r.Perm(n) }

// Shuffle pseudo-randomizes the order of n elements using swap.
func (s *Source) Shuffle(n int, swap func(i, j int)) { s.r.Shuffle(n, swap) }

// Bool returns true with probability p.
func (s *Source) Bool(p float64) bool { return s.r.Float64() < p }

// LogNormal returns a log-normal variate with the given location mu and
// scale sigma (parameters of the underlying normal). Daily per-device IoT
// traffic is heavy tailed; the paper's Figure 12 ECDFs span 100 KB to
// 100 GB, which a log-normal body reproduces well.
func (s *Source) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*s.r.NormFloat64())
}

// Pareto returns a Pareto variate with scale xm and shape alpha. Used for
// the small population of very heavy lines (e.g. AMQP bulk transfers in
// Figure 12c).
func (s *Source) Pareto(xm, alpha float64) float64 {
	u := s.r.Float64()
	for u == 0 {
		u = s.r.Float64()
	}
	return xm / math.Pow(u, 1/alpha)
}

// Poisson returns a Poisson variate with mean lambda using Knuth's method
// for small lambda and a normal approximation above 64.
func (s *Source) Poisson(lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda > 64 {
		v := lambda + math.Sqrt(lambda)*s.r.NormFloat64()
		if v < 0 {
			return 0
		}
		return int(v + 0.5)
	}
	return s.PoissonExp(math.Exp(-lambda))
}

// PoissonExp(math.Exp(-lambda)) draws what Poisson(lambda) does for
// 0 < lambda <= 64, for a caller that tabulates exp(-lambda).
func (s *Source) PoissonExp(expNegLambda float64) int {
	k := 0
	p := 1.0
	for {
		p *= s.r.Float64()
		if p <= expNegLambda {
			return k
		}
		k++
	}
}

type zipfKey struct {
	s float64
	n int
}

// zipf samples a bounded Zipf distribution by rejection inversion of the
// integrand's upper envelope (Hörmann & Derflinger's rejection-inversion
// method, the same construction the legacy math/rand Zipf used). All
// per-distribution constants are precomputed so a draw costs one or two
// log/exp pairs.
type zipf struct {
	q            float64 // skew exponent (> 1)
	v            float64 // shift (>= 1)
	oneMinusQ    float64
	oneMinusQInv float64
	hXM          float64 // h(imax + 0.5)
	hX0MinusHXM  float64 // h(0.5) - pmf(0) - h(imax + 0.5)
	s            float64 // acceptance shortcut threshold
}

// h is the antiderivative of the envelope v+x ↦ (v+x)^-q.
func (z *zipf) h(x float64) float64 {
	return math.Exp(z.oneMinusQ*math.Log(z.v+x)) * z.oneMinusQInv
}

// hInv inverts h.
func (z *zipf) hInv(x float64) float64 {
	return math.Exp(z.oneMinusQInv*math.Log(z.oneMinusQ*x)) - z.v
}

func newZipf(q float64, imax int) *zipf {
	z := &zipf{q: q, v: 1, oneMinusQ: 1 - q}
	z.oneMinusQInv = 1 / z.oneMinusQ
	z.hXM = z.h(float64(imax) + 0.5)
	z.hX0MinusHXM = z.h(0.5) - math.Exp(-z.q*math.Log(z.v)) - z.hXM
	z.s = 1 - z.hInv(z.h(1.5)-math.Exp(-z.q*math.Log(z.v+1.5)))
	return z
}

func (z *zipf) draw(r *rand.Rand) int {
	for {
		u := z.hXM + r.Float64()*z.hX0MinusHXM
		x := z.hInv(u)
		k := math.Floor(x + 0.5)
		if k-x <= z.s {
			return int(k)
		}
		if u >= z.h(k+0.5)-math.Exp(-z.q*math.Log(k+z.v)) {
			return int(k)
		}
	}
}

// Zipf draws ranks in [0, n) with Zipfian skew s1 (s1 > 1). Popular
// backends attract most devices; rank 0 is the most popular. It panics
// on s1 <= 1 (an invalid skew must fail loudly, not degenerate to a
// plausible-looking distribution).
func (s *Source) Zipf(s1 float64, n int) int {
	if n <= 1 {
		return 0
	}
	if s1 <= 1 {
		panic("simrand: Zipf requires skew > 1")
	}
	k := zipfKey{s: s1, n: n}
	z, ok := s.zc[k]
	if !ok {
		if s.zc == nil {
			s.zc = map[zipfKey]*zipf{}
		}
		z = newZipf(s1, n-1)
		s.zc[k] = z
	}
	return z.draw(&s.r)
}

// WeightedChoice returns an index drawn proportionally to weights. Zero or
// negative weights are treated as zero. If all weights are zero it returns
// uniformly.
func (s *Source) WeightedChoice(weights []float64) int {
	total := 0.0
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		return s.r.IntN(len(weights))
	}
	x := s.r.Float64() * total
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}

// ActivityShape names an hourly activity curve of an IoT application class
// (Section 5.3: some applications follow prime-time diurnal patterns,
// others are flat machine-to-machine exchanges, others peak during
// business hours).
type ActivityShape int

const (
	// ShapeFlat is constant machine-to-machine activity (paper: T2).
	ShapeFlat ActivityShape = iota
	// ShapeEvening peaks in prime time, 18:00-22:00 (paper: T1, T4).
	ShapeEvening
	// ShapeBusiness is roughly constant 08:00-20:00 and low at night
	// (paper: T3).
	ShapeBusiness
	// ShapeDiurnal is a smooth sinusoidal day/night curve.
	ShapeDiurnal
)

// String returns the shape name.
func (a ActivityShape) String() string {
	switch a {
	case ShapeFlat:
		return "flat"
	case ShapeEvening:
		return "evening-peak"
	case ShapeBusiness:
		return "business-hours"
	case ShapeDiurnal:
		return "diurnal"
	default:
		return "unknown"
	}
}

// HourWeight returns the relative activity weight of local hour h (0-23)
// for the shape. Weights are in (0, 1] and the peak hour is 1.
func (a ActivityShape) HourWeight(h int) float64 {
	h = ((h % 24) + 24) % 24
	switch a {
	case ShapeFlat:
		return 1
	case ShapeEvening:
		switch {
		case h >= 18 && h <= 22:
			return 1
		case h >= 8 && h < 18:
			return 0.45 + 0.03*float64(h-8)
		case h == 23:
			return 0.7
		default: // night 0-7
			return 0.18
		}
	case ShapeBusiness:
		switch {
		case h >= 8 && h < 20:
			return 1
		case h >= 6 && h < 8:
			return 0.5
		case h >= 20 && h < 22:
			return 0.5
		default:
			return 0.15
		}
	case ShapeDiurnal:
		// Minimum around 04:00, maximum around 16:00.
		return 0.55 + 0.45*math.Sin(2*math.Pi*float64(h-10)/24)
	default:
		return 1
	}
}
