package scenario

import (
	"sort"

	"iotmap/internal/faultwire"
	"iotmap/internal/outage"
)

// Preset suite names (cmd/iotdisrupt -suite).
const (
	// PresetHijackT1 hijacks the largest provider's prefixes for half a
	// day, visible from the residential ISP and IXP vantages but not
	// from isp-b (route visibility is vantage-dependent).
	PresetHijackT1 = "hijack-t1"
	// PresetOutageFeedLoss replays the Dec 7 2021 AWS us-east-1 outage
	// with the blast radius extended to isp-b's exporter: that
	// vantage's wire feed dies mid-outage.
	PresetOutageFeedLoss = "outage-feedloss"
	// PresetMigrationD1 migrates the D1 (bosch) fleet to a private AS
	// mid-study — pure control-plane, so every figure must match the
	// clean baseline byte for byte.
	PresetMigrationD1 = "migration-d1"
	// PresetPaperWeek runs all three steps: per-step deltas plus the
	// cumulative everything-at-once scenario.
	PresetPaperWeek = "paper-week"
	// PresetOutageWireChaos separates the two planes of a bad week: the
	// AWS us-east-1 outage alone, isp-b's feeds corrupting and dying
	// mid-week alone, and both at once (the cumulative scenario).
	PresetOutageWireChaos = "outage-wire-chaos"
)

// MigrationTargetASN is the presets' destination AS for fleet moves: a
// private-use ASN guaranteed never to collide with the world's
// generated AS space.
const MigrationTargetASN = 64512

// Preset vantage names match cmd/iotdisrupt's federation (isp-a,
// isp-b, ixp); suites are declarative, so callers with different
// vantage sets just build their own Suite literals.

func presetHijack() Step {
	return Step{
		Name: "hijack-t1",
		Hijack: &Hijack{
			Provider: "amazon",
			// Day 2, 10:00-22:00 on the study clock.
			FromHour: 2*24 + 10, ToHour: 2*24 + 22,
			Vantages:  []string{"isp-a", "ixp"},
			Blackhole: true,
		},
	}
}

// awsOutage is the Dec 7 2021 AWS us-east-1 outage on day 4 of the
// study clock.
func awsOutage() *outage.Scenario {
	sc := outage.AWSUSEast1(4)
	return &sc
}

// killFeed is a wire rule under which the vantage's feeds die at hour.
func killFeed(vantage string, hour int) faultwire.Rule {
	return faultwire.Rule{Stream: -1, Vantage: vantage, FromHour: hour, Faults: faultwire.Faults{Kill: true}}
}

func presetOutageFeedLoss() Step {
	return Step{
		Name:   "outage-feedloss",
		Outage: awsOutage(),
		// isp-b's exporter sat in the failing region: its feed dies one
		// hour into the outage window (day 4, 16:00).
		Wire: []faultwire.Rule{killFeed("isp-b", 4*24+16)},
	}
}

func presetMigration() Step {
	return Step{
		Name: "migration-d1",
		Migration: &Migration{
			Provider: "bosch",
			ToASN:    MigrationTargetASN,
			// Day 5, noon.
			AtHour: 5*24 + 12,
		},
	}
}

func presetWireChaos() Step {
	return Step{
		Name: "wire-chaos",
		Wire: []faultwire.Rule{
			// isp-b's feeds corrupt all week: one frame in five, since a
			// batch frame carries a whole line's rows and only a few dozen
			// frames reach the wire before the kill...
			{Stream: -1, Vantage: "isp-b", Faults: faultwire.Faults{CorruptProb: 0.2}},
			// ...and die outright Wednesday 14:00.
			killFeed("isp-b", 2*24+14),
		},
	}
}

// Presets returns the paper-grounded suite library, keyed by name.
// Every preset assumes an 8-day study period (world.StudyDays or
// world.OutageDays) and the iotdisrupt federation's vantage names.
func Presets(seed int64) map[string]Suite {
	return map[string]Suite{
		PresetHijackT1:       {Name: PresetHijackT1, Seed: seed, Steps: []Step{presetHijack()}},
		PresetOutageFeedLoss: {Name: PresetOutageFeedLoss, Seed: seed, Steps: []Step{presetOutageFeedLoss()}},
		PresetMigrationD1:    {Name: PresetMigrationD1, Seed: seed, Steps: []Step{presetMigration()}},
		PresetPaperWeek: {Name: PresetPaperWeek, Seed: seed, Steps: []Step{
			presetHijack(), presetOutageFeedLoss(), presetMigration(),
		}},
		PresetOutageWireChaos: {Name: PresetOutageWireChaos, Seed: seed, Steps: []Step{
			{Name: "aws-outage", Outage: awsOutage()}, presetWireChaos(),
		}},
	}
}

// PresetNames lists the preset suites in stable order.
func PresetNames() []string {
	presets := Presets(1)
	names := make([]string, 0, len(presets))
	for name := range presets {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
