// Package analysis provides the statistical helpers the figure
// reproductions share: empirical CDFs (Figure 12), hourly time series
// (Figures 8-10, 15-16), share normalization (Figures 13-14), and
// set-comparison utilities (Figure 4's stability bars) — plus ForEach,
// the ordered worker pool the measurement stages fan out on.
package analysis

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// ForEach calls f(i) for every i in [0, n) on GOMAXPROCS workers and
// returns when every call has. Each call writes only its own result
// slot, so callers read results in index order whatever the scheduling;
// with GOMAXPROCS=1 the single worker runs i = 0, 1, ... in order.
func ForEach(n int, f func(i int)) {
	workers := min(runtime.GOMAXPROCS(0), n)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				f(i)
			}
		}()
	}
	wg.Wait()
}

// ECDF is an empirical cumulative distribution function over float64
// samples.
type ECDF struct {
	sorted []float64
}

// NewECDF builds an ECDF; the input is copied.
func NewECDF(samples []float64) *ECDF {
	return &ECDF{sorted: sortedCopy(samples)}
}

// radixCutover is the sample count below which sortedCopy leaves the
// work to sort.Float64s: eight counting passes cost more than a small
// comparison sort.
const radixCutover = 256

// sortedCopy returns samples sorted ascending, element for element the
// slice sort.Float64s makes (-0 and +0, which it treats as equal, may
// trade places). It is an LSD radix sort, one byte per pass, over keys
// that order like the floats: the bits of a non-negative float with the
// sign bit set, the complement of a negative one's. A key lives in a
// float64 slot as its bit pattern, so the sort needs only one scratch
// slice. NaN has no place in that order; an input with one goes to
// sort.Float64s, which puts NaNs first.
func sortedCopy(samples []float64) []float64 {
	n := len(samples)
	keys := make([]float64, n)
	if n < radixCutover || slices.ContainsFunc(samples, math.IsNaN) {
		copy(keys, samples)
		sort.Float64s(keys)
		return keys
	}
	var counts [8][256]int
	for i, f := range samples {
		k := math.Float64bits(f)
		k ^= -(k >> 63) | 1<<63 // negative: complement; else set the sign bit
		keys[i] = math.Float64frombits(k)
		for d := range counts {
			counts[d][byte(k>>(8*d))]++
		}
	}
	buf := make([]float64, n)
	for d := range counts {
		c := &counts[d]
		if c[byte(math.Float64bits(keys[0])>>(8*d))] == n {
			continue // every key has this byte: the pass would move nothing
		}
		sum := 0
		for b, cnt := range c {
			c[b] = sum
			sum += cnt
		}
		for _, f := range keys {
			b := byte(math.Float64bits(f) >> (8 * d))
			buf[c[b]] = f
			c[b]++
		}
		keys, buf = buf, keys
	}
	for i, f := range keys {
		k := math.Float64bits(f)
		k ^= (k>>63 - 1) | 1<<63 // undo the key transform
		keys[i] = math.Float64frombits(k)
	}
	return keys
}

// Len returns the sample count.
func (e *ECDF) Len() int { return len(e.sorted) }

// At returns P(X <= x).
func (e *ECDF) At(x float64) float64 {
	if len(e.sorted) == 0 {
		return 0
	}
	i := sort.SearchFloat64s(e.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(e.sorted))
}

// Quantile returns the q-quantile (0..1).
func (e *ECDF) Quantile(q float64) float64 {
	if len(e.sorted) == 0 {
		return 0
	}
	if q <= 0 {
		return e.sorted[0]
	}
	if q >= 1 {
		return e.sorted[len(e.sorted)-1]
	}
	idx := int(q * float64(len(e.sorted)-1))
	return e.sorted[idx]
}

// Between returns P(lo < X <= hi).
func (e *ECDF) Between(lo, hi float64) float64 { return e.At(hi) - e.At(lo) }

// Series is an hour-indexed time series.
type Series struct {
	Label string
	// Values holds one value per hour of the study period.
	Values []float64
}

// NewSeries allocates a zeroed series of n hours.
func NewSeries(label string, n int) *Series {
	return &Series{Label: label, Values: make([]float64, n)}
}

// Add accumulates v at hour index i (out-of-range is ignored).
func (s *Series) Add(i int, v float64) {
	if i >= 0 && i < len(s.Values) {
		s.Values[i] += v
	}
}

// Max returns the series maximum.
func (s *Series) Max() float64 {
	m := 0.0
	for _, v := range s.Values {
		if v > m {
			m = v
		}
	}
	return m
}

// Min returns the minimum over a half-open hour range [lo, hi); it
// ignores zero hours (unobserved) unless everything is zero.
func (s *Series) Min(lo, hi int) float64 {
	if lo < 0 {
		lo = 0
	}
	if hi > len(s.Values) {
		hi = len(s.Values)
	}
	m := math.Inf(1)
	for i := lo; i < hi; i++ {
		if s.Values[i] > 0 && s.Values[i] < m {
			m = s.Values[i]
		}
	}
	if math.IsInf(m, 1) {
		return 0
	}
	return m
}

// Sum totals a half-open hour range [lo, hi).
func (s *Series) Sum(lo, hi int) float64 {
	if lo < 0 {
		lo = 0
	}
	if hi > len(s.Values) {
		hi = len(s.Values)
	}
	t := 0.0
	for i := lo; i < hi; i++ {
		t += s.Values[i]
	}
	return t
}

// Total sums the whole series.
func (s *Series) Total() float64 { return s.Sum(0, len(s.Values)) }

// Shares normalizes a weighted map into fractions summing to 1.
func Shares[K comparable](weights map[K]float64) map[K]float64 {
	total := 0.0
	for _, v := range weights {
		total += v
	}
	out := make(map[K]float64, len(weights))
	for k, v := range weights {
		if total > 0 {
			out[k] = v / total
		} else {
			out[k] = 0
		}
	}
	return out
}

// SetDiff compares two sets of comparable items (Figure 4's reference vs
// current snapshot comparison).
type SetDiff struct {
	Both, OnlyRef, OnlyCur int
}

// Fractions returns the three bars of Figure 4 relative to the union.
func (d SetDiff) Fractions() (both, onlyRef, onlyCur float64) {
	total := float64(d.Both + d.OnlyRef + d.OnlyCur)
	if total == 0 {
		return 0, 0, 0
	}
	return float64(d.Both) / total, float64(d.OnlyRef) / total, float64(d.OnlyCur) / total
}

// Compare computes the diff between a reference and a current set.
func Compare[K comparable](ref, cur map[K]struct{}) SetDiff {
	var d SetDiff
	for k := range ref {
		if _, ok := cur[k]; ok {
			d.Both++
		} else {
			d.OnlyRef++
		}
	}
	for k := range cur {
		if _, ok := ref[k]; !ok {
			d.OnlyCur++
		}
	}
	return d
}

// HumanBytes renders a byte count the way the paper's axes do.
func HumanBytes(v float64) string {
	switch {
	case v >= 1e12:
		return fmt.Sprintf("%.1fTB", v/1e12)
	case v >= 1e9:
		return fmt.Sprintf("%.1fGB", v/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.1fMB", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.1fKB", v/1e3)
	default:
		return fmt.Sprintf("%.0fB", v)
	}
}
