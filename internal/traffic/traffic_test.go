package traffic

import (
	"math"
	"testing"

	"iotmap/internal/geo"
	"iotmap/internal/proto"
	"iotmap/internal/simrand"
)

func TestProfilesCoverage(t *testing.T) {
	ps := Profiles()
	// 14 profiled providers: the 16 of Table 1 minus the two China-only
	// backends with no European residential base (Section 5.2).
	if len(ps) != 14 {
		t.Fatalf("profiles = %d", len(ps))
	}
	if _, ok := ps["baidu"]; ok {
		t.Fatal("baidu must not be profiled")
	}
	if _, ok := ps["huawei"]; ok {
		t.Fatal("huawei must not be profiled")
	}
	for id, p := range ps {
		if p.ProviderID != id {
			t.Errorf("%s: mismatched ProviderID %s", id, p.ProviderID)
		}
		if p.LineShare <= 0 || p.DownMedian <= 0 || p.DownUpRatio <= 0 {
			t.Errorf("%s: degenerate profile %+v", id, p)
		}
		total := 0.0
		for _, pw := range p.Ports {
			total += pw.Weight
		}
		if math.Abs(total-1) > 0.02 {
			t.Errorf("%s: port weights sum to %.3f", id, total)
		}
		contTotal := 0.0
		for _, w := range p.Continents {
			contTotal += w
		}
		if math.Abs(contTotal-1) > 0.02 {
			t.Errorf("%s: continent weights sum to %.3f", id, contTotal)
		}
	}
}

func TestProviderIDsOrdering(t *testing.T) {
	ids := ProviderIDs()
	if len(ids) != 14 {
		t.Fatalf("ids = %d", len(ids))
	}
	if ids[0] != "amazon" {
		t.Fatalf("largest share should lead: %v", ids[:3])
	}
	ps := Profiles()
	for i := 1; i < len(ids); i++ {
		if ps[ids[i]].LineShare > ps[ids[i-1]].LineShare {
			t.Fatal("not sorted by descending share")
		}
	}
}

func TestActiveThisHourFollowsShape(t *testing.T) {
	p := Profiles()["amazon"] // evening shape
	rng := simrand.New(3)
	evening, night := 0, 0
	const trials = 4000
	for i := 0; i < trials; i++ {
		if p.ActiveThisHour(rng, 20) {
			evening++
		}
		if p.ActiveThisHour(rng, 3) {
			night++
		}
	}
	if evening < night*2 {
		t.Fatalf("evening=%d night=%d, want clear peak", evening, night)
	}
}

// TestProfileConstantsMatchFormulas: the per-profile hour table and logs
// are exactly what the draws used to compute per call, so every draw
// stays bit-identical.
func TestProfileConstantsMatchFormulas(t *testing.T) {
	for id, p := range Profiles() {
		for h := 0; h < 24; h++ {
			if got, want := p.hourProb[h], p.ActiveHourProb*p.Shape.HourWeight(h); got != want {
				t.Errorf("%s hour %d: table %v, formula %v", id, h, got, want)
			}
		}
		if p.lnDown != lnMedian(p.DownMedian) || p.lnHeavy != lnMedian(p.HeavyDailyBytes) {
			t.Errorf("%s: logs %v/%v, formula %v/%v", id, p.lnDown, p.lnHeavy, lnMedian(p.DownMedian), lnMedian(p.HeavyDailyBytes))
		}
	}
}

// TestActiveThisHourWrapsHours: any hour, negative or past 23, draws as
// the formula does at that hour (HourWeight wraps it into 0-23).
func TestActiveThisHourWrapsHours(t *testing.T) {
	p := Profiles()["amazon"]
	got, want := simrand.New(9), simrand.New(9)
	for _, h := range []int{-49, -25, -1, 0, 23, 24, 47, 100} {
		for i := 0; i < 50; i++ {
			if g, w := p.ActiveThisHour(got, h), want.Bool(p.ActiveHourProb*p.Shape.HourWeight(h)); g != w {
				t.Fatalf("hour %d draw %d: %v, formula %v", h, i, g, w)
			}
		}
	}
}

func TestDrawHourVolumesRatio(t *testing.T) {
	p := Profiles()["microsoft"] // down-heavy, ratio 2.6
	rng := simrand.New(4)
	var d, u float64
	for i := 0; i < 5000; i++ {
		down, up := p.DrawHourVolumes(rng)
		d += float64(down)
		u += float64(up)
	}
	ratio := d / u
	if ratio < 1.8 || ratio > 3.6 {
		t.Fatalf("realized ratio = %.2f, profile says 2.6", ratio)
	}
}

func TestDrawHeavyDaily(t *testing.T) {
	bosch := Profiles()["bosch"]
	rng := simrand.New(5)
	v := bosch.DrawHeavyDaily(rng)
	if v < 50e6 || v > 3e9 {
		t.Fatalf("heavy daily = %d, want 100MB-1GB territory", v)
	}
	ms := Profiles()["microsoft"]
	if ms.DrawHeavyDaily(rng) != 0 {
		t.Fatal("non-heavy profile drew a bulk volume")
	}
}

func TestPickPortDistribution(t *testing.T) {
	p := Profiles()["ptc"]
	rng := simrand.New(6)
	counts := map[proto.PortKey]int{}
	for i := 0; i < 10000; i++ {
		counts[p.PickPort(rng)]++
	}
	activeMQ := counts[proto.PortKey{Transport: proto.TCP, Port: 61616}]
	if float64(activeMQ)/10000 < 0.5 {
		t.Fatalf("ptc 61616 share = %d/10000, want dominant", activeMQ)
	}
}

func TestPickContinentDistribution(t *testing.T) {
	p := Profiles()["bosch"] // EU-only
	rng := simrand.New(7)
	for i := 0; i < 200; i++ {
		if c := p.PickContinent(rng); c != geo.Europe {
			t.Fatalf("bosch device homed to %v", c)
		}
	}
	g := Profiles()["google"]
	seen := map[geo.Continent]bool{}
	for i := 0; i < 2000; i++ {
		seen[g.PickContinent(rng)] = true
	}
	if len(seen) < 4 {
		t.Fatalf("google homing continents = %v, want global spread", seen)
	}
	// Degenerate profile falls back to Europe.
	empty := Profile{}
	if c := empty.PickContinent(rng); c != geo.Europe {
		t.Fatalf("fallback continent = %v", c)
	}
}

func TestVolumeFloorAndCap(t *testing.T) {
	if clampVol(1) != 64 {
		t.Fatal("floor missing")
	}
	if clampVol(1e15) != 1<<40 {
		t.Fatal("cap missing")
	}
}
