// Package traffic defines the per-application workload model behind the
// ISP analyses of Section 5: how many subscriber lines host each
// provider's devices, when those devices talk (diurnal / business-hours /
// flat / evening-peak shapes), how much they move in each direction, and
// over which ports.
//
// Profiles are calibrated so the *shapes* of Figures 8-14 hold: activity
// levels spanning orders of magnitude, T1≈T3 in volume despite a 10×
// line gap, down/up ratios from below 0.33 to above 3, provider-specific
// port mixes including non-standard ports, per-line daily volumes almost
// always below 10 MB — with the AMQP-heavy exception of Figure 12c.
package traffic

import (
	"math"
	"sort"

	"iotmap/internal/geo"
	"iotmap/internal/proto"
	"iotmap/internal/simrand"
)

// PortWeight pairs a port with its share of the provider's traffic.
type PortWeight struct {
	Port   proto.PortKey
	Weight float64
}

// Profile is the workload model of one provider's IoT application fleet.
// Only Profiles() builds a usable value: it fills the draw constants
// derived from the exported fields, so a Profile built or edited field
// by field draws from stale or zero constants.
type Profile struct {
	ProviderID string
	// LineShare is the relative probability that an IoT device belongs
	// to this provider (Figure 8's orders-of-magnitude spread).
	LineShare float64
	// Shape is the hourly activity curve.
	Shape simrand.ActivityShape
	// ActiveHourProb scales the per-hour emission probability at the
	// shape's peak.
	ActiveHourProb float64
	// DownMedian is the median downstream bytes of one active hour;
	// DownUpRatio derives the upstream side (Figure 10).
	DownMedian  float64
	DownUpRatio float64
	// Sigma is the log-normal spread of hourly volumes.
	Sigma float64
	// HeavyFrac of lines run bulk transfers on HeavyPort (Figure 12c's
	// 100MB-1GB AMQP population).
	HeavyFrac float64
	HeavyPort proto.PortKey
	// HeavyDailyBytes is the median daily bulk volume for heavy lines.
	HeavyDailyBytes float64
	// Ports is the provider's port mix (Figure 11).
	Ports []PortWeight
	// Continents steers device→server homing (Figures 13/14: around a
	// third of traffic crosses the Atlantic).
	Continents map[geo.Continent]float64
	// ServerSpread is the fraction of the provider's per-continent
	// server pool that devices are ever homed to (Figure 6 visibility).
	ServerSpread float64
	// RegionBias concentrates within-continent homing (e.g. Amazon's
	// us-east-1 flagship, the subject of Figures 15/16).
	RegionBias map[string]float64
	// RemapDaily is the probability a device lands on a different
	// eligible server after its daily re-resolution.
	RemapDaily float64

	// Profiles precomputes ActiveHourProb × Shape.HourWeight(h) per local
	// hour and the log-normal mus of DownMedian and HeavyDailyBytes.
	hourProb        [24]float64
	lnDown, lnHeavy float64
}

func tcp(port uint16) proto.PortKey { return proto.PortKey{Transport: proto.TCP, Port: port} }
func udp(port uint16) proto.PortKey { return proto.PortKey{Transport: proto.UDP, Port: port} }

// Profiles returns the workload table keyed by provider ID. Baidu and
// Huawei have no European residential footprint (Section 5.2 excludes
// O3/O5 for lack of activity), so they carry no profile.
func Profiles() map[string]Profile {
	list := []Profile{
		{
			ProviderID: "amazon", LineShare: 0.40,
			Shape: simrand.ShapeEvening, ActiveHourProb: 0.45,
			DownMedian: 100e3, DownUpRatio: 1.6, Sigma: 1.2,
			Ports:        []PortWeight{{tcp(8883), 0.45}, {tcp(443), 0.48}, {tcp(8443), 0.07}},
			Continents:   map[geo.Continent]float64{geo.Europe: 0.50, geo.NorthAmerica: 0.47, geo.Asia: 0.03},
			ServerSpread: 0.55, RemapDaily: 0.15,
			RegionBias: map[string]float64{"us-east-1": 6, "us-east-2": 1.5, "eu-central-1": 3, "eu-west-1": 2.5},
		},
		{
			ProviderID: "google", LineShare: 0.045,
			Shape: simrand.ShapeFlat, ActiveHourProb: 0.5,
			DownMedian: 22e3, DownUpRatio: 0.4, Sigma: 1.0,
			Ports: []PortWeight{{tcp(8883), 0.55}, {tcp(443), 0.45}},
			Continents: map[geo.Continent]float64{
				geo.NorthAmerica: 0.35, geo.Europe: 0.33, geo.Asia: 0.22,
				geo.SouthAmerica: 0.05, geo.Oceania: 0.05,
			},
			ServerSpread: 1.0, RemapDaily: 0.5,
		},
		{
			ProviderID: "microsoft", LineShare: 0.04,
			Shape: simrand.ShapeBusiness, ActiveHourProb: 0.5,
			DownMedian: 450e3, DownUpRatio: 2.6, Sigma: 1.1,
			Ports:        []PortWeight{{tcp(8883), 0.55}, {tcp(443), 0.35}, {tcp(5671), 0.10}},
			Continents:   map[geo.Continent]float64{geo.Europe: 0.78, geo.NorthAmerica: 0.20, geo.Asia: 0.02},
			ServerSpread: 0.4, RemapDaily: 0.1,
		},
		{
			ProviderID: "alibaba", LineShare: 0.012,
			Shape: simrand.ShapeEvening, ActiveHourProb: 0.3,
			DownMedian: 45e3, DownUpRatio: 1.0, Sigma: 1.2,
			Ports:        []PortWeight{{tcp(1883), 0.5}, {tcp(443), 0.36}, {udp(5682), 0.08}, {udp(12289), 0.03}, {udp(19457), 0.03}},
			Continents:   map[geo.Continent]float64{geo.Asia: 0.45, geo.Europe: 0.35, geo.NorthAmerica: 0.2},
			ServerSpread: 0.35, RemapDaily: 0.1,
		},
		{
			ProviderID: "bosch", LineShare: 0.012,
			Shape: simrand.ShapeFlat, ActiveHourProb: 0.45,
			DownMedian: 15e3, DownUpRatio: 0.35, Sigma: 1.1,
			HeavyFrac: 0.22, HeavyPort: tcp(5671), HeavyDailyBytes: 250e6,
			Ports:        []PortWeight{{tcp(5671), 0.45}, {tcp(8883), 0.33}, {tcp(443), 0.17}, {udp(5684), 0.05}},
			Continents:   map[geo.Continent]float64{geo.Europe: 1.0},
			ServerSpread: 0.25, RemapDaily: 0.25,
		},
		{
			ProviderID: "cisco", LineShare: 0.006,
			Shape: simrand.ShapeBusiness, ActiveHourProb: 0.4,
			DownMedian: 60e3, DownUpRatio: 3.0, Sigma: 1.1,
			Ports:        []PortWeight{{tcp(8883), 0.5}, {tcp(443), 0.28}, {tcp(9123), 0.12}, {udp(30023), 0.1}},
			Continents:   map[geo.Continent]float64{geo.Europe: 0.75, geo.NorthAmerica: 0.25},
			ServerSpread: 0.5, RemapDaily: 0.1,
		},
		{
			ProviderID: "siemens", LineShare: 0.025,
			Shape: simrand.ShapeBusiness, ActiveHourProb: 0.55,
			DownMedian: 28e3, DownUpRatio: 0.8, Sigma: 1.0,
			Ports:        []PortWeight{{tcp(443), 0.55}, {tcp(8883), 0.35}, {tcp(4840), 0.1}},
			Continents:   map[geo.Continent]float64{geo.Europe: 0.88, geo.NorthAmerica: 0.1, geo.Asia: 0.02},
			ServerSpread: 0.85, RemapDaily: 0.3,
		},
		{
			ProviderID: "ptc", LineShare: 0.008,
			Shape: simrand.ShapeFlat, ActiveHourProb: 0.5,
			DownMedian: 90e3, DownUpRatio: 1.2, Sigma: 1.3,
			Ports:        []PortWeight{{tcp(61616), 0.62}, {tcp(443), 0.33}, {tcp(8883), 0.05}},
			Continents:   map[geo.Continent]float64{geo.Europe: 0.6, geo.NorthAmerica: 0.4},
			ServerSpread: 0.12, RemapDaily: 0.1,
		},
		{
			ProviderID: "sap", LineShare: 0.015,
			Shape: simrand.ShapeBusiness, ActiveHourProb: 0.45,
			DownMedian: 110e3, DownUpRatio: 2.2, Sigma: 1.1,
			Ports:        []PortWeight{{tcp(443), 0.58}, {tcp(8883), 0.42}},
			Continents:   map[geo.Continent]float64{geo.Europe: 0.8, geo.NorthAmerica: 0.15, geo.Asia: 0.05},
			ServerSpread: 0.1, RemapDaily: 0.2,
		},
		{
			ProviderID: "sierra", LineShare: 0.01,
			Shape: simrand.ShapeDiurnal, ActiveHourProb: 0.4,
			DownMedian: 22e3, DownUpRatio: 0.5, Sigma: 1.2,
			Ports:        []PortWeight{{tcp(8883), 0.3}, {tcp(1883), 0.28}, {tcp(443), 0.22}, {tcp(80), 0.05}, {udp(5686), 0.15}},
			Continents:   map[geo.Continent]float64{geo.Europe: 0.65, geo.NorthAmerica: 0.35},
			ServerSpread: 0.6, RemapDaily: 0.1,
		},
		{
			ProviderID: "ibm", LineShare: 0.012,
			Shape: simrand.ShapeDiurnal, ActiveHourProb: 0.45,
			DownMedian: 70e3, DownUpRatio: 1.8, Sigma: 1.2,
			Ports:        []PortWeight{{tcp(8883), 0.45}, {tcp(1883), 0.18}, {tcp(443), 0.22}, {tcp(80), 0.05}, {udp(3073), 0.1}},
			Continents:   map[geo.Continent]float64{geo.Europe: 0.7, geo.NorthAmerica: 0.25, geo.Asia: 0.05},
			ServerSpread: 0.2, RemapDaily: 0.1,
		},
		{
			ProviderID: "oracle", LineShare: 0.004,
			Shape: simrand.ShapeFlat, ActiveHourProb: 0.4,
			DownMedian: 40e3, DownUpRatio: 0.7, Sigma: 1.1,
			Ports:        []PortWeight{{tcp(443), 0.88}, {tcp(8883), 0.1}, {tcp(1884), 0.02}},
			Continents:   map[geo.Continent]float64{geo.Europe: 0.6, geo.NorthAmerica: 0.4},
			ServerSpread: 0.15, RemapDaily: 0.1,
		},
		{
			ProviderID: "fujitsu", LineShare: 0.001,
			Shape: simrand.ShapeFlat, ActiveHourProb: 0.35,
			DownMedian: 25e3, DownUpRatio: 1.1, Sigma: 1.0,
			Ports:        []PortWeight{{tcp(8883), 0.6}, {tcp(443), 0.4}},
			Continents:   map[geo.Continent]float64{geo.Asia: 1.0},
			ServerSpread: 0.6, RemapDaily: 0.05,
		},
		{
			ProviderID: "tencent", LineShare: 0.002,
			Shape: simrand.ShapeEvening, ActiveHourProb: 0.3,
			DownMedian: 35e3, DownUpRatio: 1.3, Sigma: 1.1,
			Ports:        []PortWeight{{tcp(8883), 0.4}, {tcp(1883), 0.25}, {tcp(443), 0.2}, {tcp(80), 0.05}, {udp(5684), 0.1}},
			Continents:   map[geo.Continent]float64{geo.Asia: 0.7, geo.Europe: 0.3},
			ServerSpread: 0.5, RemapDaily: 0.1,
		},
	}
	out := make(map[string]Profile, len(list))
	for _, p := range list {
		for h := range p.hourProb {
			p.hourProb[h] = p.ActiveHourProb * p.Shape.HourWeight(h)
		}
		p.lnDown, p.lnHeavy = lnMedian(p.DownMedian), lnMedian(p.HeavyDailyBytes)
		out[p.ProviderID] = p
	}
	return out
}

// ProviderIDs returns the profiled providers sorted by descending line
// share (the Figure 8 grouping order).
func ProviderIDs() []string {
	ps := Profiles()
	ids := make([]string, 0, len(ps))
	for id := range ps {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		a, b := ps[ids[i]], ps[ids[j]]
		if a.LineShare != b.LineShare {
			return a.LineShare > b.LineShare
		}
		return ids[i] < ids[j]
	})
	return ids
}

// ActiveThisHour decides whether a device emits traffic at local hour h.
func (p *Profile) ActiveThisHour(rng *simrand.Source, hour int) bool {
	return rng.Bool(p.hourProb[((hour%24)+24)%24])
}

// DrawHourVolumes draws the down/up byte volumes of one active hour.
func (p *Profile) DrawHourVolumes(rng *simrand.Source) (down, up uint64) {
	d := rng.LogNormal(p.lnDown, p.Sigma)
	ratio := p.DownUpRatio
	if ratio <= 0 {
		ratio = 1
	}
	u := d / ratio * jitter(rng)
	return clampVol(d), clampVol(u)
}

// DrawHeavyDaily draws the daily bulk volume of a heavy line.
func (p *Profile) DrawHeavyDaily(rng *simrand.Source) uint64 {
	if p.HeavyDailyBytes <= 0 {
		return 0
	}
	return clampVol(rng.LogNormal(p.lnHeavy, 0.5))
}

// PickPort draws a port from the provider's mix. The weighted walk is
// inlined over p.Ports (bit-identical draws to WeightedChoice over the
// weight column) so the per-record hot path allocates nothing.
func (p *Profile) PickPort(rng *simrand.Source) proto.PortKey {
	total := 0.0
	for _, pw := range p.Ports {
		if pw.Weight > 0 {
			total += pw.Weight
		}
	}
	if total <= 0 {
		return p.Ports[rng.Intn(len(p.Ports))].Port
	}
	x := rng.Float64() * total
	for _, pw := range p.Ports {
		if pw.Weight <= 0 {
			continue
		}
		x -= pw.Weight
		if x < 0 {
			return pw.Port
		}
	}
	return p.Ports[len(p.Ports)-1].Port
}

// continentOrder fixes the draw order for continent weighting; both
// the plain and biased picks must walk it identically or same-seed
// worlds would consume RNG draws differently.
var continentOrder = []geo.Continent{geo.Europe, geo.NorthAmerica, geo.Asia, geo.SouthAmerica, geo.Oceania, geo.Africa}

// PickContinent draws the continent a device homes to.
func (p *Profile) PickContinent(rng *simrand.Source) geo.Continent {
	return p.PickContinentBiased(rng, nil)
}

// PickContinentBiased is PickContinent with per-continent weight
// multipliers — a vantage-point world in another market sees another
// backend mix. A nil bias keeps the profile mix untouched (bit-
// identical draws to PickContinent); continents absent from the map
// keep weight 1, and a bias that zeroes the whole mix falls back to
// the unbiased profile.
func (p *Profile) PickContinentBiased(rng *simrand.Source, bias map[geo.Continent]float64) geo.Continent {
	conts := make([]geo.Continent, 0, len(p.Continents))
	weights := make([]float64, 0, len(p.Continents))
	for _, c := range continentOrder {
		w := p.Continents[c]
		if w <= 0 {
			continue
		}
		if b, ok := bias[c]; ok {
			w *= b
		}
		if w > 0 {
			conts = append(conts, c)
			weights = append(weights, w)
		}
	}
	if len(conts) == 0 {
		if bias != nil {
			return p.PickContinent(rng)
		}
		return geo.Europe
	}
	return conts[rng.WeightedChoice(weights)]
}

// lnMedian converts a median to the log-normal mu parameter.
func lnMedian(median float64) float64 {
	if median <= 0 {
		return 0
	}
	return math.Log(median)
}

func jitter(rng *simrand.Source) float64 { return 0.8 + 0.4*rng.Float64() }

func clampVol(v float64) uint64 {
	if v < 64 {
		return 64 // an IP packet floor
	}
	if v > 1<<40 {
		return 1 << 40
	}
	return uint64(v)
}
