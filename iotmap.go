// Package iotmap reproduces "Deep Dive into the IoT Backend Ecosystem"
// (Saidi et al., ACM IMC 2022) as a runnable system: a synthetic Internet
// standing in for the paper's proprietary vantage points, the full
// discovery/validation/footprint methodology of Sections 3-4, the ISP
// traffic analyses of Section 5, and the disruption studies of Section 6.
//
// The package is a staged facade over the internal packages:
//
//	sys, _ := iotmap.New(iotmap.Config{Scale: 0.1, Lines: 10000})
//	defer sys.Close()
//	sys.Discover(ctx)          // Censys + IPv6 scan + DNSDB + active DNS
//	sys.ValidateAndLocate()    // shared-IP filter, geolocation, Table 1
//	sys.TrafficStudy()         // ISP NetFlow simulation + Figures 5-14
//	sys.Disrupt()              // outage + BGP + blocklist, Figures 15-16
//
// The first three stages each produce one value (Discovered, Validated,
// Traffic) from the earlier stages' values. The System embeds each one,
// so their fields read as the System's own; internal/figures renders
// them as the paper's tables and figures.
package iotmap

import (
	"context"
	"time"

	"iotmap/internal/collector"
	"iotmap/internal/core/discovery"
	"iotmap/internal/core/disrupt"
	"iotmap/internal/core/flows"
	"iotmap/internal/core/footprint"
	"iotmap/internal/core/patterns"
	"iotmap/internal/faultwire"
	"iotmap/internal/geo"
	"iotmap/internal/outage"
	"iotmap/internal/vnet"
	"iotmap/internal/world"
)

// Re-exported types so downstream users rarely need internal imports.
type (
	// Pattern is a provider domain pattern (Section 3.2).
	Pattern = patterns.Pattern
	// DiscoveryResult is one provider's discovered address sets.
	DiscoveryResult = discovery.Result
	// Row is a measured Table 1 row.
	Row = footprint.Row
	// Study is the finalized ISP traffic analysis.
	Study = flows.Study
	// OutageReport quantifies Figures 15/16.
	OutageReport = disrupt.OutageReport
	// DisruptionReport is the Section 6.2 summary.
	DisruptionReport = disrupt.Report
	// CascadeEntry is one platform's outage-window impact (§6.1's
	// "Impact on D1-D6" check).
	CascadeEntry = disrupt.CascadeEntry
	// World is the synthetic ground truth.
	World = world.World
)

// Config sizes a reproduction run.
type Config struct {
	// Seed drives all randomness (default 1).
	Seed int64
	// Scale multiplies the paper-calibrated deployment sizes (default
	// 0.05; 1.0 reproduces Figure 3's absolute counts).
	Scale float64
	// Lines is the simulated subscriber-line count (default 6000; the
	// paper's ISP serves >15M).
	Lines int
	// Days is the study period (default Feb 28 - Mar 7, 2022).
	Days []time.Time
	// ScannerThreshold is Figure 5's exclusion threshold (default 100).
	ScannerThreshold int
	// Outage, when non-nil, injects the scenario into the traffic
	// simulation (use world.OutageDays() as Days for the paper's week).
	Outage *outage.Scenario
	// SkipLiveScan disables the vnet deployment + real TLS scanning of
	// the IPv6 estate (faster; discovery falls back to DNS channels).
	SkipLiveScan bool
	// TrafficMode selects TrafficStudy's data path: TrafficModeMemory
	// (default) hands aggregators the simulator's rows; TrafficModeWire
	// exports every line shard as a framed dictionary stream and
	// re-ingests it through internal/collector — the production-shaped
	// path, byte-identical in output. A DisruptionSuite step's Wire
	// rules need TrafficModeWire: memory mode has no stream to fault.
	TrafficMode string
	// WireStreams is the concurrent stream count in wire mode
	// (default GOMAXPROCS).
	WireStreams int
	// Vantages configures FederationStudy's vantage-point worlds — one
	// isp.Network per spec, observed through the TrafficMode data path
	// and merged into per-vantage plus union analyses. Empty means one
	// default vantage, which makes FederationStudy produce exactly
	// TrafficStudy's single-ISP results.
	Vantages []VantageSpec
	// WirePolicy picks the collector's stream-fault response in wire
	// mode; the zero value Abort preserves fail-loudly behavior.
	WirePolicy ErrorPolicy
}

// ErrorPolicy re-exports the collector's stream-fault policy.
type ErrorPolicy = collector.ErrorPolicy

// Wire-mode stream-fault policies (Config.WirePolicy).
const (
	WireAbort            = collector.Abort
	WireDropFrame        = collector.DropFrame
	WireQuarantineStream = collector.QuarantineStream
)

// Fault-injection re-exports, so suite steps (scenario.Step.Wire)
// rarely need the internal import.
type (
	// FaultRule is one scheduled fault mix: which streams and vantage,
	// which study hours.
	FaultRule = faultwire.Rule
	// Faults is a rule's fault mix.
	Faults = faultwire.Faults
)

// VantageSpec describes one vantage-point world of a federated run: a
// subscriber population observed through its own sampled NetFlow feed.
// The zero value inherits the run's Config (seed, lines) and the ISP
// model defaults — the paper's residential-ISP vantage. An IXP-style
// vantage is just a spec with aggressive sampling and no scanner lines:
//
//	VantageSpec{Name: "ixp", SamplingRate: 4096, ScannerFraction: -1}
type VantageSpec struct {
	// Name labels the vantage in studies, coverage reports, and
	// collector stream stats (default "vp<index>"). Names must be
	// unique within a run.
	Name string
	// Lines is the subscriber-line count (default Config.Lines).
	Lines int
	// Seed drives the vantage's world. Zero derives a per-vantage seed
	// from Config.Seed — except for the first vantage, which inherits
	// Config.Seed itself so a single-vantage federation reproduces
	// TrafficStudy byte for byte.
	Seed int64
	// SamplingRate is the vantage's NetFlow packet-sampling denominator
	// (default 1:100; IXPs sample far more aggressively).
	SamplingRate uint32
	// ScannerFraction is the share of lines running Internet-wide
	// scanners; zero keeps the ISP default, negative means none (an IXP
	// sees transit, not subscriber scanners).
	ScannerFraction float64
	// ContinentMix reweights device backend homing per continent (an
	// ISP in another market). Nil keeps each provider's profile mix.
	ContinentMix map[geo.Continent]float64
}

// TrafficStudy data paths (Config.TrafficMode).
const (
	// TrafficModeMemory simulates straight into in-process aggregators.
	TrafficModeMemory = "memory"
	// TrafficModeWire runs simulate→NetFlow-export→collect end-to-end:
	// figures are computed from packets, not memory.
	TrafficModeWire = "wire"
)

func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Scale <= 0 {
		c.Scale = 0.05
	}
	if c.Lines <= 0 {
		c.Lines = 6000
	}
	if c.ScannerThreshold <= 0 {
		c.ScannerThreshold = 100
	}
	return c
}

// System is a staged reproduction run. Discover, ValidateAndLocate and
// TrafficStudy each set one embedded result from the results before it;
// no stage rewrites an earlier stage's result.
type System struct {
	Cfg      Config
	World    *world.World
	Patterns []*patterns.Pattern

	Discovered
	Validated
	Traffic

	// FederationStudy outputs.
	Federation *FederationResult

	// Disrupt outputs.
	OutageReport *disrupt.OutageReport
	Cascade      []disrupt.CascadeEntry
	Disruptions  *disrupt.Report

	fabric *vnet.Fabric
}

// New builds the synthetic world for a run.
func New(cfg Config) (*System, error) {
	cfg = cfg.withDefaults()
	w, err := world.Build(world.Config{Seed: cfg.Seed, Scale: cfg.Scale, Days: cfg.Days})
	if err != nil {
		return nil, err
	}
	return &System{
		Cfg:      cfg,
		World:    w,
		Patterns: patterns.All(),
	}, nil
}

// Close releases the virtual network, if any.
func (s *System) Close() {
	if s.fabric != nil {
		s.fabric.Close()
		s.fabric = nil
	}
}

// RunAll executes every stage.
func (s *System) RunAll(ctx context.Context) error {
	if err := s.Discover(ctx); err != nil {
		return err
	}
	if err := s.ValidateAndLocate(); err != nil {
		return err
	}
	if err := s.TrafficStudy(); err != nil {
		return err
	}
	return s.Disrupt()
}

// ProviderIDs returns the providers in Table 1 order.
func (s *System) ProviderIDs() []string { return append([]string(nil), s.World.Order...) }

// AliasOf maps a provider ID to its anonymized label.
func (s *System) AliasOf(id string) string { return s.World.AliasOf(id) }

// AWSOutageScenario returns the paper's Dec 7 2021 scenario positioned
// within world.OutageDays().
func AWSOutageScenario() *outage.Scenario {
	sc := outage.AWSUSEast1(4)
	return &sc
}

// OutageStudyDays returns the December 2021 study period.
func OutageStudyDays() []time.Time { return world.OutageDays() }

// StudyDays returns the primary February/March 2022 study period.
func StudyDays() []time.Time { return world.StudyDays() }
