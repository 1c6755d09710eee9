package simrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Int63() != b.Int63() {
			t.Fatalf("same seed diverged at step %d", i)
		}
	}
}

func TestDeriveIndependence(t *testing.T) {
	a := Derive(1, "dns")
	b := Derive(1, "traffic")
	same := 0
	for i := 0; i < 100; i++ {
		if a.Int63() == b.Int63() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("derived streams look correlated: %d/100 equal draws", same)
	}
}

func TestDeriveStable(t *testing.T) {
	x := Derive(7, "a", "b").Int63()
	y := Derive(7, "a", "b").Int63()
	if x != y {
		t.Fatalf("Derive is not stable: %d != %d", x, y)
	}
	z := Derive(7, "ab").Int63()
	if x == z {
		t.Fatalf("label concatenation collides: Derive(a,b) == Derive(ab)")
	}
}

// TestLabelMatchesSeedN: a pre-hashed label derives exactly the seeds
// SeedN does, for every qualifier count the simulator uses.
func TestLabelMatchesSeedN(t *testing.T) {
	for _, seed := range []int64{0, 1, -7, 211, math.MaxInt64} {
		for _, label := range []string{"", "line", "sampler-line", "homing"} {
			l := NewLabel(seed, label)
			if got, want := l.SeedN(), SeedN(seed, label); got != want {
				t.Fatalf("(%d, %q) no qualifiers: %d, SeedN %d", seed, label, got, want)
			}
			if got, want := l.SeedN(3), SeedN(seed, label, 3); got != want {
				t.Fatalf("(%d, %q, 3): %d, SeedN %d", seed, label, got, want)
			}
			if got, want := l.SeedN(41, -1, 6), SeedN(seed, label, 41, -1, 6); got != want {
				t.Fatalf("(%d, %q, 41, -1, 6): %d, SeedN %d", seed, label, got, want)
			}
		}
	}
}

// TestPoissonExpMatchesPoisson: handing the Knuth loop a precomputed
// exp(-λ) draws the same variates, consuming the same stream, as Poisson.
func TestPoissonExpMatchesPoisson(t *testing.T) {
	a, b := New(9), New(9)
	for i := 1; i <= 6400; i++ {
		lambda := float64(i) / 100
		if x, y := a.Poisson(lambda), b.PoissonExp(math.Exp(-lambda)); x != y {
			t.Fatalf("λ=%g: Poisson %d, PoissonExp %d", lambda, x, y)
		}
	}
	if a.Int63() != b.Int63() {
		t.Fatal("the two entry points consumed different amounts of the stream")
	}
}

func TestRange(t *testing.T) {
	s := New(3)
	for i := 0; i < 1000; i++ {
		v := s.Range(5, 9)
		if v < 5 || v > 9 {
			t.Fatalf("Range(5,9) returned %d", v)
		}
	}
	if got := s.Range(4, 4); got != 4 {
		t.Fatalf("Range(4,4) = %d, want 4", got)
	}
}

func TestRangePanicsOnInverted(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Range(9,5) did not panic")
		}
	}()
	New(1).Range(9, 5)
}

func TestLogNormalPositive(t *testing.T) {
	s := New(11)
	if err := quick.Check(func(mu float64) bool {
		mu = math.Mod(mu, 10)
		v := s.LogNormal(mu, 1.5)
		return v > 0 && !math.IsInf(v, 0) || math.IsInf(v, 1)
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLogNormalMedian(t *testing.T) {
	s := New(5)
	const n = 20000
	below := 0
	for i := 0; i < n; i++ {
		if s.LogNormal(math.Log(1000), 2.0) < 1000 {
			below++
		}
	}
	frac := float64(below) / n
	if frac < 0.47 || frac > 0.53 {
		t.Fatalf("median of LogNormal(log 1000, 2) off: P(X<1000)=%.3f", frac)
	}
}

func TestParetoAtLeastScale(t *testing.T) {
	s := New(8)
	for i := 0; i < 1000; i++ {
		if v := s.Pareto(100, 1.2); v < 100 {
			t.Fatalf("Pareto below scale: %f", v)
		}
	}
}

func TestPoissonMean(t *testing.T) {
	s := New(9)
	for _, lambda := range []float64{0.5, 4, 40, 200} {
		sum := 0
		const n = 5000
		for i := 0; i < n; i++ {
			sum += s.Poisson(lambda)
		}
		mean := float64(sum) / n
		if math.Abs(mean-lambda) > 0.15*lambda+0.2 {
			t.Fatalf("Poisson(%.1f) sample mean %.2f", lambda, mean)
		}
	}
	if s.Poisson(0) != 0 || s.Poisson(-1) != 0 {
		t.Fatal("Poisson of non-positive lambda should be 0")
	}
}

func TestZipfSkew(t *testing.T) {
	s := New(10)
	counts := make([]int, 10)
	for i := 0; i < 20000; i++ {
		counts[s.Zipf(1.3, 10)]++
	}
	if counts[0] <= counts[5] {
		t.Fatalf("Zipf not skewed: rank0=%d rank5=%d", counts[0], counts[5])
	}
	if s.Zipf(1.5, 1) != 0 {
		t.Fatal("Zipf with n=1 must return 0")
	}
}

func TestWeightedChoice(t *testing.T) {
	s := New(12)
	w := []float64{0, 1, 3}
	counts := make([]int, 3)
	for i := 0; i < 30000; i++ {
		counts[s.WeightedChoice(w)]++
	}
	if counts[0] != 0 {
		t.Fatalf("zero-weight index chosen %d times", counts[0])
	}
	ratio := float64(counts[2]) / float64(counts[1])
	if ratio < 2.6 || ratio > 3.4 {
		t.Fatalf("weight ratio off: %f", ratio)
	}
	// All-zero weights fall back to uniform without panicking.
	for i := 0; i < 100; i++ {
		if idx := s.WeightedChoice([]float64{0, 0}); idx < 0 || idx > 1 {
			t.Fatalf("fallback index out of range: %d", idx)
		}
	}
}

func TestHourWeightProperties(t *testing.T) {
	shapes := []ActivityShape{ShapeFlat, ShapeEvening, ShapeBusiness, ShapeDiurnal}
	for _, sh := range shapes {
		for h := -24; h < 48; h++ {
			w := sh.HourWeight(h)
			if w <= 0 || w > 1 {
				t.Fatalf("%v hour %d weight %f out of (0,1]", sh, h, w)
			}
			if w != sh.HourWeight(h+24) {
				t.Fatalf("%v not 24h periodic at %d", sh, h)
			}
		}
	}
	// Evening shape must actually peak in the evening.
	if ShapeEvening.HourWeight(20) <= ShapeEvening.HourWeight(3) {
		t.Fatal("evening shape does not peak at 20:00 vs 03:00")
	}
	// Business shape flat during work hours.
	if ShapeBusiness.HourWeight(9) != ShapeBusiness.HourWeight(15) {
		t.Fatal("business shape not flat across working hours")
	}
	// Flat is flat.
	if ShapeFlat.HourWeight(0) != ShapeFlat.HourWeight(13) {
		t.Fatal("flat shape is not flat")
	}
}

func TestShapeString(t *testing.T) {
	if ShapeFlat.String() != "flat" || ActivityShape(99).String() != "unknown" {
		t.Fatal("ActivityShape.String mismatch")
	}
}

func TestZipfPanicsOnInvalidSkew(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Zipf(1.0, 10) did not panic")
		}
	}()
	New(1).Zipf(1.0, 10)
}
