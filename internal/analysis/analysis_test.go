package analysis

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestECDFBasics(t *testing.T) {
	e := NewECDF([]float64{1, 2, 3, 4})
	if e.Len() != 4 {
		t.Fatalf("len = %d", e.Len())
	}
	cases := []struct{ x, want float64 }{
		{0.5, 0}, {1, 0.25}, {2.5, 0.5}, {4, 1}, {100, 1},
	}
	for _, c := range cases {
		if got := e.At(c.x); math.Abs(got-c.want) > 1e-9 {
			t.Fatalf("At(%v) = %v, want %v", c.x, got, c.want)
		}
	}
	if e.Between(1, 3) != 0.5 {
		t.Fatalf("Between = %v", e.Between(1, 3))
	}
}

func TestECDFQuantile(t *testing.T) {
	var samples []float64
	for i := 1; i <= 100; i++ {
		samples = append(samples, float64(i))
	}
	e := NewECDF(samples)
	if q := e.Quantile(0.5); q < 49 || q > 52 {
		t.Fatalf("median = %v", q)
	}
	if e.Quantile(0) != 1 || e.Quantile(1) != 100 {
		t.Fatalf("extremes = %v, %v", e.Quantile(0), e.Quantile(1))
	}
}

func TestECDFEmpty(t *testing.T) {
	e := NewECDF(nil)
	if e.At(5) != 0 || e.Quantile(0.5) != 0 {
		t.Fatal("empty ECDF should be zero")
	}
}

func TestPropertyECDFMonotone(t *testing.T) {
	f := func(raw []float64, probe float64) bool {
		var clean []float64
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				clean = append(clean, v)
			}
		}
		e := NewECDF(clean)
		a := e.At(probe)
		b := e.At(probe + 1)
		return a >= 0 && b <= 1 && a <= b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSeries(t *testing.T) {
	s := NewSeries("T1", 24)
	s.Add(0, 5)
	s.Add(1, 10)
	s.Add(30, 99) // ignored
	s.Add(-1, 99) // ignored
	if s.Max() != 10 || s.Total() != 15 {
		t.Fatalf("max=%v total=%v", s.Max(), s.Total())
	}
	if s.Min(0, 24) != 5 {
		t.Fatalf("min = %v", s.Min(0, 24))
	}
	if s.Sum(0, 1) != 5 {
		t.Fatalf("sum = %v", s.Sum(0, 1))
	}
	empty := NewSeries("x", 3)
	if empty.Min(0, 3) != 0 {
		t.Fatal("empty min")
	}
}

func TestShares(t *testing.T) {
	s := Shares(map[string]float64{"EU": 62, "US": 35, "AS": 3})
	if math.Abs(s["EU"]-0.62) > 1e-9 || math.Abs(s["AS"]-0.03) > 1e-9 {
		t.Fatalf("shares = %v", s)
	}
	z := Shares(map[string]float64{"a": 0})
	if z["a"] != 0 {
		t.Fatal("zero-total shares")
	}
}

func TestCompareSets(t *testing.T) {
	d := Compare([]string{"a", "b", "c"}, []string{"b", "c", "d"})
	if d.Both != 2 || d.OnlyRef != 1 || d.OnlyCur != 1 {
		t.Fatalf("diff = %+v", d)
	}
	// Either list may run out first; the other's tail is its own.
	if tail := Compare([]uint32{1, 5, 9, 12}, []uint32{2, 5}); tail != (SetDiff{Both: 1, OnlyRef: 3, OnlyCur: 1}) {
		t.Fatalf("diff = %+v", tail)
	}
	if tail := Compare(nil, []uint32{2, 5}); tail != (SetDiff{OnlyCur: 2}) {
		t.Fatalf("diff = %+v", tail)
	}
	both, onlyRef, onlyCur := d.Fractions()
	if math.Abs(both-0.5) > 1e-9 || math.Abs(onlyRef-0.25) > 1e-9 || math.Abs(onlyCur-0.25) > 1e-9 {
		t.Fatalf("fractions = %v %v %v", both, onlyRef, onlyCur)
	}
	if z := (SetDiff{}); func() bool { a, b, c := z.Fractions(); return a == 0 && b == 0 && c == 0 }() == false {
		t.Fatal("zero diff fractions")
	}
}

func TestHumanBytes(t *testing.T) {
	cases := map[float64]string{
		500:    "500B",
		1500:   "1.5KB",
		2.5e6:  "2.5MB",
		3.2e9:  "3.2GB",
		1.1e12: "1.1TB",
	}
	for v, want := range cases {
		if got := HumanBytes(v); got != want {
			t.Fatalf("HumanBytes(%v) = %q, want %q", v, got, want)
		}
	}
}

// TestNewECDFMatchesFloat64s is the radix kernel's oracle: NewECDF's
// sorted slice equals sort.Float64s's element for element (== for the
// zeros, which that sort treats as equal; NaN matches NaN) on random
// inputs with the awkward values mixed in, across the small-input
// cutover, and on the NaN fallback path.
func TestNewECDFMatchesFloat64s(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 25))
	special := []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		0x1p-1030, -0x1p-1030, 0x1.8p-1025, -0x1.8p-1025, // subnormals, both mantissa halves
		math.MaxFloat64, -math.MaxFloat64, 1, -1,
	}
	draw := func(n int, dups bool) []float64 {
		out := make([]float64, n)
		for i := range out {
			switch r := rng.IntN(10); {
			case r == 0:
				out[i] = special[rng.IntN(len(special))]
			case r == 1 && dups && i > 0:
				out[i] = out[rng.IntN(i)]
			case r < 5:
				out[i] = math.Float64frombits(rng.Uint64()) // any bit pattern
			default:
				out[i] = rng.ExpFloat64() * 1e6 // the daily-volume shape
			}
			if math.IsNaN(out[i]) {
				out[i] = 1.5
			}
		}
		return out
	}
	check := func(name string, in []float64) {
		t.Helper()
		want := append([]float64(nil), in...)
		sort.Float64s(want)
		orig := append([]float64(nil), in...)
		got := NewECDF(in).sorted
		if len(got) != len(want) {
			t.Fatalf("%s: %d samples sorted to %d", name, len(want), len(got))
		}
		for i := range want {
			if got[i] != want[i] && !(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
				t.Fatalf("%s: [%d] = %v, sort.Float64s has %v", name, i, got[i], want[i])
			}
		}
		for i := range in {
			if math.Float64bits(in[i]) != math.Float64bits(orig[i]) {
				t.Fatalf("%s: NewECDF modified its input", name)
			}
		}
	}
	for _, n := range []int{0, 1, 2, radixCutover - 1, radixCutover, radixCutover + 1, 1000, 40000} {
		check(fmt.Sprintf("random/n=%d", n), draw(n, false))
		check(fmt.Sprintf("dups/n=%d", n), draw(n, true))
		equal := make([]float64, n)
		for i := range equal {
			equal[i] = 3.25
		}
		check(fmt.Sprintf("all-equal/n=%d", n), equal)
		if n > 0 {
			withNaN := draw(n, true)
			withNaN[rng.IntN(n)] = math.NaN()
			check(fmt.Sprintf("nan/n=%d", n), withNaN)
		}
	}
	check("specials", append(append([]float64(nil), special...), special...))
	check("specials-above-cutover", func() []float64 {
		var out []float64
		for len(out) < 2*radixCutover {
			out = append(out, special...)
		}
		return out
	}())
}

// TestForEach: every index runs exactly once, at any worker count.
func TestForEach(t *testing.T) {
	for _, n := range []int{0, 1, 3, 100} {
		hits := make([]atomic.Int32, n)
		ForEach(n, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if h := hits[i].Load(); h != 1 {
				t.Fatalf("n=%d: index %d ran %d times", n, i, h)
			}
		}
	}
}
