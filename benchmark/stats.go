package main

import (
	"math"
	"sort"
	"time"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count) without reordering xs. Empty input is 0.
func median(xs []float64) float64 {
	return percentile(xs, 50)
}

// percentile returns the p-th percentile (0-100) of xs by linear
// interpolation between closest ranks. Empty input is 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// quartileSpread is the distance between the first and third quartile
// as a share of the median, with the quartiles cut the way Python's
// statistics.quantiles(values, n=4) cuts them (exclusive method) — the
// driver's steadiness measure, reproduced so -compare reports what the
// driver will see.
func quartileSpread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	cut := func(k int) float64 {
		pos := float64(k*(n+1))/4 - 1
		j := int(math.Floor(pos))
		j = max(0, min(j, n-2))
		return s[j] + (s[j+1]-s[j])*(pos-float64(j))
	}
	m := median(s)
	if m == 0 {
		return 0
	}
	return (cut(3) - cut(1)) / math.Abs(m)
}

// samples collects durations of one repeated operation.
type samples []time.Duration

func (s *samples) add(d time.Duration) { *s = append(*s, d) }

// in converts the samples to float64s in the given unit.
func (s samples) in(unit time.Duration) []float64 {
	out := make([]float64, len(s))
	for i, d := range s {
		out[i] = float64(d) / float64(unit)
	}
	return out
}

// p50 is the median in the given unit.
func (s samples) p50(unit time.Duration) float64 { return median(s.in(unit)) }

// p99 is the 99th percentile in the given unit.
func (s samples) p99(unit time.Duration) float64 { return percentile(s.in(unit), 99) }
