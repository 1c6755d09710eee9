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
// Each stage fills the corresponding exported fields; internal/figures
// renders them as the paper's tables and figures.
package iotmap

import (
	"context"
	"fmt"
	"io"
	"net/netip"
	"runtime"
	"sync"
	"time"

	"iotmap/internal/analysis"
	"iotmap/internal/asdb"
	"iotmap/internal/bgpstream"
	"iotmap/internal/blocklist"
	"iotmap/internal/certmodel"
	"iotmap/internal/collector"
	"iotmap/internal/core/discovery"
	"iotmap/internal/core/disrupt"
	"iotmap/internal/core/flows"
	"iotmap/internal/core/footprint"
	"iotmap/internal/core/patterns"
	"iotmap/internal/core/validate"
	"iotmap/internal/dnsdb"
	"iotmap/internal/faultwire"
	"iotmap/internal/geo"
	"iotmap/internal/isp"
	"iotmap/internal/outage"
	"iotmap/internal/scenario"
	"iotmap/internal/simrand"
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
	// HitlistCoverage is the IPv6 hitlist's fraction of the v6 estate.
	HitlistCoverage float64
	// ScannerThreshold is Figure 5's exclusion threshold (default 100).
	ScannerThreshold int
	// SharedThreshold is the Section 3.4 non-IoT domain threshold.
	SharedThreshold int
	// Outage, when non-nil, injects the scenario into the traffic
	// simulation (use world.OutageDays() as Days for the paper's week).
	Outage *outage.Scenario
	// SkipLiveScan disables the vnet deployment + real TLS scanning of
	// the IPv6 estate (faster; discovery falls back to DNS channels).
	SkipLiveScan bool
	// TrafficMode selects TrafficStudy's data path: TrafficModeMemory
	// (default) hands aggregators in-memory records; TrafficModeWire
	// exports every line shard as a framed dictionary stream and
	// re-ingests it through internal/collector — the production-shaped
	// path, byte-identical in output.
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
	// FederationWorkers caps how many vantage pipelines FederationStudy
	// runs concurrently (each vantage produces independent shard
	// partials, so the worlds build and simulate in parallel and only
	// the final FederatedMerge joins them). 0 means GOMAXPROCS; 1 runs
	// the vantage loop sequentially.
	FederationWorkers int
	// WireFaults, when non-nil, splices the deterministic chaos harness
	// (internal/faultwire) into every wire-mode stream: each collector
	// read tap is wrapped per the scenario's schedule, keyed by stream
	// index and vantage name. A zero Start is filled with the study's
	// first day so scenario hours align with study hours. Ignored in
	// memory mode.
	WireFaults *faultwire.Scenario
	// WirePolicy picks the collector's stream-fault response in wire
	// mode; the zero value Abort preserves fail-loudly behavior.
	WirePolicy ErrorPolicy
	// WireStallTimeout arms the collector's per-stream read-stall
	// watchdog in wire mode; zero disables it.
	WireStallTimeout time.Duration
}

// ErrorPolicy re-exports the collector's stream-fault policy.
type ErrorPolicy = collector.ErrorPolicy

// Wire-mode stream-fault policies (Config.WirePolicy).
const (
	WireAbort            = collector.Abort
	WireDropFrame        = collector.DropFrame
	WireQuarantineStream = collector.QuarantineStream
)

// Fault-injection re-exports, so chaos studies rarely need the
// internal import.
type (
	// FaultScenario schedules deterministic wire faults by stream,
	// vantage, and study hour.
	FaultScenario = faultwire.Scenario
	// FaultRule is one scheduled fault mix within a scenario.
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
	// IoTPenetration and V6Fraction override the ISP model defaults
	// when positive.
	IoTPenetration float64
	V6Fraction     float64
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
	if c.HitlistCoverage <= 0 {
		c.HitlistCoverage = 0.8
	}
	if c.ScannerThreshold <= 0 {
		c.ScannerThreshold = 100
	}
	if c.SharedThreshold <= 0 {
		c.SharedThreshold = validate.DefaultSharedThreshold
	}
	return c
}

// Validation bundles the Section 3.4 ground-truth reports.
type Validation struct {
	// IPs holds per-provider reports for full-disclosure providers.
	IPs map[string]validate.IPReport
	// Prefixes holds the prefix-level report (Microsoft).
	Prefixes map[string]validate.PrefixReport
	// Traffic holds the active-traffic cross-check (set by Disrupt or
	// TrafficStudy when traffic data exists).
	Traffic map[string]validate.TrafficReport
}

// System is a staged reproduction run.
type System struct {
	Cfg      Config
	World    *world.World
	Patterns []*patterns.Pattern

	// Discover outputs.
	Discovery map[string]*discovery.Result
	PDNS      *dnsdb.DB

	// ValidateAndLocate outputs.
	Dedicated  map[string][]netip.Addr
	Shared     map[string][]netip.Addr
	Located    map[string]map[netip.Addr]footprint.Located
	Rows       map[string]footprint.Row
	Validation Validation
	// prefixAddrs keeps the sorted discovered addresses of each
	// prefix-disclosing provider for trafficCrossCheck.
	prefixAddrs map[string][]netip.Addr
	// certDedicated keeps, per provider, the dedicated addresses the
	// TLS-certificate channel found, for backendIndex.
	certDedicated map[string]map[netip.Addr]struct{}

	// TrafficStudy outputs.
	Net      *isp.Network
	Contacts *flows.ContactCounter
	Index    *flows.BackendIndex
	Study    *flows.Study
	// WireExport/WireIngest are the wire-mode transfer counters (nil in
	// memory mode): what the border routers framed onto the streams, and
	// what the collector decoded, scaled, and folded back out of them.
	// WireStreams breaks the ingest down per stream, so anomalies point
	// at the feed that produced them.
	WireExport  *isp.WireStats
	WireIngest  *collector.Stats
	WireStreams []collector.StreamStat

	// FederationStudy outputs.
	Federation *FederationResult

	// Disrupt outputs.
	OutageReport *disrupt.OutageReport
	Cascade      []disrupt.CascadeEntry
	Disruptions  *disrupt.Report

	fabric *vnet.Fabric
}

// VantageResult is one vantage's slice of a federated run.
type VantageResult struct {
	// Spec is the normalized spec the vantage ran with.
	Spec VantageSpec
	// Net is the vantage's subscriber world.
	Net *isp.Network
	// Contacts and Study are the vantage's own Figure 5 counter and
	// Section 5 analysis — exactly what a single-vantage TrafficStudy
	// over this world would produce.
	Contacts *flows.ContactCounter
	Study    *flows.Study
	// WireExport/WireIngest/WireStreams are the wire-mode transfer
	// counters (nil/empty in memory mode); WireStreams breaks the
	// ingest down per stream with vantage attribution.
	WireExport  *isp.WireStats
	WireIngest  *collector.Stats
	WireStreams []collector.StreamStat
}

// FederationResult is FederationStudy's output: per-vantage studies,
// their exact union, and the cross-vantage coverage comparison.
type FederationResult struct {
	// Vantages holds one result per configured spec, in Config order.
	Vantages []*VantageResult
	// Union merges every vantage's analysis exactly (volumes add, sets
	// union; vantage address plans are disjoint so lines never alias).
	Union *flows.Study
	// UnionContacts is the merged Figure 5 counter.
	UnionContacts *flows.ContactCounter
	// Coverage is the backends/providers-per-vantage comparison.
	Coverage *flows.CoverageReport
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

// Discover runs the Section 3.3 source fusion.
func (s *System) Discover(ctx context.Context) error {
	// The scan catalog and the week of zone stores live for this call
	// only: discovery.Run reads them, s.Discovery keeps none of it. The
	// three are independent read-only passes over the World, so they are
	// built concurrently.
	in := discovery.Inputs{
		Patterns: s.Patterns,
		Views:    world.VantagePointViews,
		Days:     s.World.Days,
		Seed:     s.Cfg.Seed,
	}
	analysis.ForEach(3, func(i int) {
		switch i {
		case 0:
			in.Zones = s.World.ZoneStores()
		case 1:
			in.Censys = s.World.BuildCensys()
		case 2:
			in.PDNS = s.World.BuildDNSDB()
		}
	})
	s.PDNS = in.PDNS
	if !s.Cfg.SkipLiveScan {
		s.fabric = vnet.New()
		ca, err := certmodel.NewCA("IoT Backend Study CA")
		if err != nil {
			return err
		}
		if err := s.World.DeployServers(s.fabric, ca, s.World.V6Servers()); err != nil {
			return err
		}
		in.Fabric = s.fabric
		in.Hitlist = s.World.BuildHitlist(s.Cfg.HitlistCoverage)
	}
	res, err := discovery.Run(ctx, in)
	if err != nil {
		return err
	}
	s.Discovery = res
	return nil
}

// providerValidation is one provider's share of ValidateAndLocate.
type providerValidation struct {
	addrs, ded, shared []netip.Addr
	located            map[netip.Addr]footprint.Located
	certDed            map[netip.Addr]struct{}
	row                footprint.Row
	ips                *validate.IPReport
	prefixes           *validate.PrefixReport
}

// validateProvider runs the Section 3.4 filter, the Section 4 geolocation
// and characterization, and the ground-truth checks for one provider.
func (s *System) validateProvider(p *patterns.Pattern, period dnsdb.TimeRange) providerValidation {
	id := p.ProviderID()
	union := s.Discovery[id].Union()
	v := providerValidation{addrs: discovery.SortedAddrs(union)}
	v.ded, v.shared, _ = validate.FilterShared(v.addrs, s.Patterns, s.PDNS, period, s.Cfg.SharedThreshold)
	v.located = footprint.Geolocate(p, union, s.World.Geo, s.World.GeoVotes)
	// Characterize over the dedicated set only (Section 5 uses only
	// exclusively-IoT infrastructure).
	dedUnion := map[netip.Addr]*discovery.AddrInfo{}
	v.certDed = map[netip.Addr]struct{}{}
	for _, a := range v.ded {
		info := union[a]
		dedUnion[a] = info
		if info != nil && info.Sources.Has(discovery.SrcCert) {
			v.certDed[a] = struct{}{}
		}
	}
	v.row = footprint.Characterize(id, dedUnion, v.located, s.World.AS)
	if disclosed := s.World.DisclosedIPs(id); disclosed != nil {
		rep := validate.AgainstIPs(v.addrs, disclosed)
		v.ips = &rep
	}
	if prefixes := s.World.DisclosedPrefixes(id); prefixes != nil {
		rep := validate.AgainstPrefixes(v.addrs, prefixes)
		v.prefixes = &rep
	}
	return v
}

// ValidateAndLocate runs the Section 3.4 filters, the Section 4
// geolocation and characterization, and the ground-truth validation.
// Providers are independent, so they run on a worker pool; the System's
// maps are written afterwards, in provider order.
func (s *System) ValidateAndLocate() error {
	if s.Discovery == nil {
		return fmt.Errorf("iotmap: Discover must run first")
	}
	s.Dedicated = map[string][]netip.Addr{}
	s.Shared = map[string][]netip.Addr{}
	s.Located = map[string]map[netip.Addr]footprint.Located{}
	s.Rows = map[string]footprint.Row{}
	s.Validation = Validation{
		IPs:      map[string]validate.IPReport{},
		Prefixes: map[string]validate.PrefixReport{},
		Traffic:  map[string]validate.TrafficReport{},
	}
	s.prefixAddrs = map[string][]netip.Addr{}
	s.certDedicated = map[string]map[netip.Addr]struct{}{}
	period := dnsdb.TimeRange{From: s.World.Days[0], To: s.World.Days[len(s.World.Days)-1].Add(24 * time.Hour)}
	vals := make([]providerValidation, len(s.Patterns))
	analysis.ForEach(len(s.Patterns), func(i int) { vals[i] = s.validateProvider(s.Patterns[i], period) })
	for i, p := range s.Patterns {
		id, v := p.ProviderID(), vals[i]
		s.Dedicated[id] = v.ded
		s.Shared[id] = v.shared
		s.Located[id] = v.located
		s.certDedicated[id] = v.certDed
		s.Rows[id] = v.row
		if v.ips != nil {
			s.Validation.IPs[id] = *v.ips
		}
		if v.prefixes != nil {
			s.Validation.Prefixes[id] = *v.prefixes
			s.prefixAddrs[id] = v.addrs
		}
	}
	return nil
}

// TrafficStudy runs the single-pass sharded simulate→aggregate pipeline
// over the validated backend sets: line-major workers each simulate
// their lines' whole week straight into a worker-local aggregate,
// scanner lines are classified the moment their week completes
// (Section 5.2's Richter-style exclusion), and the shard partials merge
// order-independently into the Figure 5 contact curve and the full
// Section 5 traffic study — one simulation pass for both analyses, as
// the paper runs both over the same recorded NetFlow feed.
func (s *System) TrafficStudy() error {
	net, idx, err := s.TrafficInputs()
	if err != nil {
		return err
	}
	s.Net = net
	s.Index = idx
	s.WireExport, s.WireIngest, s.WireStreams = nil, nil, nil
	s.anchorFaultClock(s.Cfg.WireFaults)

	focusAlias, focusRegion := "T1", "us-east-1"
	if s.Cfg.Outage != nil {
		focusRegion = s.Cfg.Outage.Region
	}
	opts := flows.Options{
		ScannerThreshold: s.Cfg.ScannerThreshold,
		SamplingRate:     net.Cfg.SamplingRate,
		FocusAlias:       focusAlias,
		FocusRegion:      focusRegion,
	}
	run, err := s.runPipeline(net, idx, opts, s.Cfg.WireFaults)
	if err != nil {
		return err
	}
	cc, col := flows.MergePartials(run.parts)
	s.Contacts = cc
	s.Study = col.Study()
	s.WireExport = run.wireExport
	s.WireIngest = run.wireIngest
	s.WireStreams = run.streamStats

	// Traffic cross-check for the prefix-disclosing providers
	// (Section 3.4's "52 active IPs, 4 missed, <1% volume").
	s.trafficCrossCheck(s.Study.BackendVolumes())
	return nil
}

// trafficCrossCheck fills the §3.4 active-traffic validation from the
// per-backend volume evidence of a completed study.
func (s *System) trafficCrossCheck(volumes map[netip.Addr]float64) {
	for id := range s.Validation.Prefixes {
		perProvider := map[netip.Addr]float64{}
		for a, v := range volumes {
			if srv, ok := s.World.ServerAt(a); ok && srv.Provider == id {
				perProvider[a] = v
			}
		}
		s.Validation.Traffic[id] = validate.AgainstTraffic(s.prefixAddrs[id], perProvider)
	}
}

// TrafficInputs builds the traffic stage's raw material — the ISP
// subscriber model (with any configured outage modifier installed) and
// the backend index over the validated dedicated sets — without running
// an analysis. TrafficStudy uses it internally; standalone
// exporter/collector frontends (cmd/iotcollect) use it to drive the
// wire path by hand. Requires ValidateAndLocate.
func (s *System) TrafficInputs() (*isp.Network, *flows.BackendIndex, error) {
	idx, err := s.backendIndex()
	if err != nil {
		return nil, nil, err
	}
	net, err := isp.NewNetwork(isp.Config{Seed: s.Cfg.Seed, Lines: s.Cfg.Lines}, s.World)
	if err != nil {
		return nil, nil, err
	}
	if s.Cfg.Outage != nil {
		net.Modifier = s.Cfg.Outage.Modifier()
	}
	return net, idx, nil
}

// backendIndex builds the collector's backend index over the validated
// dedicated sets — the single source of truth every vantage of a
// federated run shares (discovery is global; only the observation
// points differ). Requires ValidateAndLocate.
func (s *System) backendIndex() (*flows.BackendIndex, error) {
	if s.Rows == nil {
		return nil, fmt.Errorf("iotmap: ValidateAndLocate must run first")
	}
	idx := flows.NewBackendIndex()
	s.eachBackend(idx.Add)
	// Freeze the dense ID assignment before the pipelines (possibly many
	// concurrent vantage worlds) start classifying against it.
	idx.Build()
	return idx, nil
}

// eachBackend calls add, in provider order, with every validated
// dedicated address as the collector indexes it: owner alias, location,
// and whether the TLS-certificate channel alone would have found it.
func (s *System) eachBackend(add func(addr netip.Addr, alias string, cont geo.Continent, region string, certFound bool)) {
	for _, p := range s.Patterns {
		id := p.ProviderID()
		alias := s.World.AliasOf(id)
		located := s.Located[id]
		certDed := s.certDedicated[id]
		for _, a := range s.Dedicated[id] {
			loc := located[a]
			_, certFound := certDed[a]
			add(a, alias, loc.Location.Continent, loc.Location.Region, certFound)
		}
	}
}

// pipelineRun is one vantage world pushed through the configured
// traffic data path: its vantage-tagged shard partials, plus the wire
// transfer stats when the feed crossed the wire (nil in memory mode).
type pipelineRun struct {
	parts       []*flows.ShardPartial
	wireExport  *isp.WireStats
	wireIngest  *collector.Stats
	streamStats []collector.StreamStat
}

// runPipeline drives one network through the Config.TrafficMode data
// path into shard partials — the single pipeline seam TrafficStudy and
// the federation share. Memory mode folds the simulator's rows into
// them; wire mode exports every line shard as a dictionary stream over
// an in-process pipe (synchronous — collector backpressure throttles
// the exporter), splices faults (nil: clean wire) into every stream,
// and decodes, validates, and rescales it back.
// Merging the partials yields byte-identical results either way.
func (s *System) runPipeline(net *isp.Network, idx *flows.BackendIndex, opts flows.Options, faults *faultwire.Scenario) (pipelineRun, error) {
	switch s.Cfg.TrafficMode {
	case TrafficModeMemory, "":
		agg := flows.NewShardedAggregator(idx, s.World.Days, opts, runtime.GOMAXPROCS(0))
		agg.Simulate(net)
		parts := make([]*flows.ShardPartial, agg.Shards())
		for i := range parts {
			parts[i] = agg.Shard(i)
		}
		return pipelineRun{parts: parts}, nil
	case TrafficModeWire:
		streams := s.Cfg.WireStreams
		if streams <= 0 {
			streams = runtime.GOMAXPROCS(0)
		}
		ccfg := collector.Config{
			Index: idx, Days: s.World.Days, Opts: opts,
			Policy:       s.Cfg.WirePolicy,
			StallTimeout: s.Cfg.WireStallTimeout,
		}
		if faults != nil {
			vantage := opts.Vantage
			ccfg.Tap = func(stream int, _ string, r io.Reader) io.Reader {
				return faults.Wrap(stream, vantage, r)
			}
		}
		col, err := collector.New(ccfg)
		if err != nil {
			return pipelineRun{}, err
		}
		writers, wait := col.IngestPipes(streams)
		wireStats, exportErr := net.SimulateLinesToWire(writers, 0)
		if err := wait(); err != nil {
			return pipelineRun{}, err
		}
		if exportErr != nil {
			return pipelineRun{}, exportErr
		}
		ingestStats := col.Stats()
		return pipelineRun{
			parts:       col.Partials(),
			wireExport:  &wireStats,
			wireIngest:  &ingestStats,
			streamStats: col.StreamStats(),
		}, nil
	default:
		return pipelineRun{}, fmt.Errorf("iotmap: unknown TrafficMode %q", s.Cfg.TrafficMode)
	}
}

// vantageSpecs normalizes Config.Vantages: an empty list becomes one
// default vantage, zero-valued fields inherit the run Config, and the
// first vantage's zero seed inherits Config.Seed itself so the default
// federation is TrafficStudy under another name.
func (s *System) vantageSpecs() ([]VantageSpec, error) {
	specs := s.Cfg.Vantages
	if len(specs) == 0 {
		specs = []VantageSpec{{}}
	}
	out := make([]VantageSpec, len(specs))
	seen := map[string]struct{}{}
	for i, sp := range specs {
		if sp.Name == "" {
			sp.Name = fmt.Sprintf("vp%d", i)
		}
		if _, dup := seen[sp.Name]; dup {
			return nil, fmt.Errorf("iotmap: duplicate vantage name %q", sp.Name)
		}
		seen[sp.Name] = struct{}{}
		if sp.Lines <= 0 {
			sp.Lines = s.Cfg.Lines
		}
		if sp.Seed == 0 {
			if i == 0 {
				sp.Seed = s.Cfg.Seed
			} else {
				sp.Seed = simrand.SeedN(s.Cfg.Seed, "vantage", int64(i))
			}
		}
		out[i] = sp
	}
	return out, nil
}

// FederationStudy is the multi-vantage TrafficStudy: one isp.Network
// per configured VantageSpec (each with its own seed, sampling rate,
// and disjoint subscriber address plan), every world streamed through
// the single-pass sharded pipeline — in-memory or over framed NetFlow
// streams per Config.TrafficMode, with per-feed vantage attribution in
// the collector stats — and the vantage-tagged shard partials folded by
// flows.FederatedMerge into per-vantage studies, an exact union study,
// and the cross-vantage coverage report (which backends are visible
// from which vantage — the paper's ISP-versus-IXP comparison angle).
// The vantage worlds are independent until the merge, so they run
// concurrently (Config.FederationWorkers, default GOMAXPROCS); partials
// are collected in spec order and the merge is order-independent, so
// the result is identical to a sequential drive. With no Vantages
// configured it runs one default vantage whose study is byte-identical
// to TrafficStudy's. Requires ValidateAndLocate.
func (s *System) FederationStudy() error {
	fed, err := s.federate(s.Cfg.WireFaults, nil)
	if err != nil {
		return err
	}
	s.Federation = fed
	// §3.4 traffic cross-check over the federated union — with one
	// vantage this is exactly TrafficStudy's per-backend evidence.
	s.trafficCrossCheck(fed.Union.BackendVolumes())
	return nil
}

// federate runs the configured federation with the given wire-fault
// schedule (nil: clean wire) and per-vantage traffic modifiers (nil:
// none), and returns the result without storing anything in the System.
// FederationStudy and every DisruptionSuite scenario run go through it,
// so a scenario differs from its baseline only by what it passes here.
func (s *System) federate(faults *faultwire.Scenario, modifierFor func(vantage string) isp.FlowModifier) (*FederationResult, error) {
	specs, err := s.vantageSpecs()
	if err != nil {
		return nil, err
	}
	idx, err := s.backendIndex()
	if err != nil {
		return nil, err
	}
	s.anchorFaultClock(faults)

	focusAlias, focusRegion := "T1", "us-east-1"
	if s.Cfg.Outage != nil {
		focusRegion = s.Cfg.Outage.Region
	}
	workers := s.Cfg.FederationWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	runs := make([]pipelineRun, len(specs))
	errs := make([]error, len(specs))
	results := make([]*VantageResult, len(specs))
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i, sp := range specs {
		wg.Add(1)
		go func(i int, sp VantageSpec) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			net, err := isp.NewNetwork(isp.Config{
				Seed:            sp.Seed,
				Lines:           sp.Lines,
				SamplingRate:    sp.SamplingRate,
				ScannerFraction: sp.ScannerFraction,
				IoTPenetration:  sp.IoTPenetration,
				V6Fraction:      sp.V6Fraction,
				VantageID:       i,
				ContinentBias:   sp.ContinentMix,
			}, s.World)
			if err != nil {
				errs[i] = fmt.Errorf("iotmap: vantage %q: %w", sp.Name, err)
				return
			}
			// A backend-side outage is visible from every vantage; the
			// per-vantage modifiers compose after it (first drop wins,
			// so unaffected flows stay bit-identical to a modifier-less
			// baseline).
			var mods []isp.FlowModifier
			if s.Cfg.Outage != nil {
				mods = append(mods, s.Cfg.Outage.Modifier())
			}
			if modifierFor != nil {
				mods = append(mods, modifierFor(sp.Name))
			}
			net.Modifier = isp.ChainModifiers(mods...)
			opts := flows.Options{
				ScannerThreshold: s.Cfg.ScannerThreshold,
				SamplingRate:     net.Cfg.SamplingRate,
				FocusAlias:       focusAlias,
				FocusRegion:      focusRegion,
				Vantage:          sp.Name,
			}
			run, err := s.runPipeline(net, idx, opts, faults)
			if err != nil {
				errs[i] = fmt.Errorf("iotmap: vantage %q: %w", sp.Name, err)
				return
			}
			runs[i] = run
			results[i] = &VantageResult{
				Spec:        sp,
				Net:         net,
				WireExport:  run.wireExport,
				WireIngest:  run.wireIngest,
				WireStreams: run.streamStats,
			}
		}(i, sp)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	var parts []*flows.ShardPartial
	for i := range runs {
		parts = append(parts, runs[i].parts...)
	}

	fed := flows.FederatedMerge(parts)
	for _, vr := range results {
		vr.Contacts = fed.CC[vr.Spec.Name]
		vr.Study = fed.Col[vr.Spec.Name].Study()
	}
	return &FederationResult{
		Vantages:      results,
		Union:         fed.UnionCol.Study(),
		UnionContacts: fed.UnionCC,
		Coverage:      fed.Coverage(),
	}, nil
}

// anchorFaultClock aligns a fault scenario's hour clock with the study
// period. Idempotent and single-threaded (called before any pipeline
// goroutine starts), so repeated studies stay deterministic.
func (s *System) anchorFaultClock(sc *faultwire.Scenario) {
	if sc != nil && sc.Start.IsZero() {
		sc.Start = s.World.Days[0]
	}
}

// FaultCounts re-exports the chaos harness's fault ledger.
type FaultCounts = faultwire.Counts

// VantageDelta compares one vantage between the baseline federation and
// a suite scenario.
type VantageDelta struct {
	Vantage string
	// Backends / BaselineBackends are the vantage's visible-backend
	// counts in the scenario and baseline runs.
	Backends, BaselineBackends int
	// HoursLost counts study hours the vantage covered in the baseline
	// but not under the scenario.
	HoursLost int
	// Degraded mirrors the scenario coverage report's flag.
	Degraded bool
	// DownDeltaPct is the downstream-volume change vs baseline, in
	// percent (negative: the scenario lost traffic).
	DownDeltaPct float64
}

// ScenarioResult is one scenario's full federated outcome plus the
// deltas against the baseline.
type ScenarioResult struct {
	Name string
	// Federation is the scenario's complete federated study.
	Federation *FederationResult
	// Vantages holds per-vantage deltas, in coverage-report order.
	Vantages []VantageDelta
	// UnionBackendsDelta is the union visible-backend change.
	UnionBackendsDelta int
	// UnionDownDeltaPct is the union downstream-volume change (%).
	UnionDownDeltaPct float64
	// FaultTotals is the scenario's reproducible wire-fault ledger
	// (nil when the scenario injected no wire faults): what the chaos
	// harness actually did to the feeds during this run.
	FaultTotals *FaultCounts
}

// studyDownTotal sums a study's downstream volume across aliases.
func studyDownTotal(st *flows.Study) float64 {
	total := 0.0
	for _, alias := range st.Aliases() {
		if s := st.Downstream(alias); s != nil {
			for _, v := range s.Values {
				total += v
			}
		}
	}
	return total
}

func pctDelta(base, got float64) float64 {
	if base == 0 {
		return 0
	}
	return (got - base) / base * 100
}

// SuiteStudyResult is DisruptionSuite's output: the per-step (and
// cumulative) scenario runs against one clean baseline, plus the suite's
// control-plane view — the BGP events it injected and which of them
// touched a monitored backend, resolved with migration-aware AS origins.
type SuiteStudyResult struct {
	// Suite is the suite's name.
	Suite string
	// Baseline is the federated study every scenario is compared
	// against: the System's own FederationStudy.
	Baseline *FederationResult
	// Scenarios holds one result per compiled scenario, in order.
	Scenarios []ScenarioResult
	// Events are the suite's injected BGP feed entries.
	Events []bgpstream.Event
	// Impacts are the Section 6.2 what-if hits: suite events covering a
	// validated backend address or its (time-aware) hosting AS.
	Impacts []bgpstream.Impact
}

// DisruptionSuite is the what-if entry: it compiles a declarative
// scenario suite against the run's world, runs (or reuses) the
// FederationStudy as the baseline, and re-runs the same federation once
// per step plus — for multi-step suites — once with every step active.
// Each run composes its step over the configured Config.Outage exactly as
// the baseline does, and reports per-vantage and union deltas (visible
// backends, downstream volume, feed hours lost, degraded vantages) with
// its wire-fault ledger. The System keeps its baseline results. The
// control-plane side runs alongside: the suite's hijack announcements
// are checked against the validated backend sets with
// bgpstream.CheckImpactAt, using migration-aware AS origin resolution,
// so an AS outage of an abandoned AS stops matching after cutover. Every
// draw derives from the suite seed; reruns are byte-identical. A step's
// fault schedule carries its own derived seed, so Config.WireFaults must
// be unset. Requires ValidateAndLocate.
func (s *System) DisruptionSuite(suite scenario.Suite) (*SuiteStudyResult, error) {
	if s.Cfg.WireFaults != nil {
		return nil, fmt.Errorf("iotmap: DisruptionSuite: Config.WireFaults is set; suite steps carry their own fault schedules and seeds")
	}
	compiled, err := suite.Compile(s.World)
	if err != nil {
		return nil, err
	}
	if s.Federation == nil {
		if err := s.FederationStudy(); err != nil {
			return nil, err
		}
	}
	base := s.Federation
	baseCov := map[string]flows.VantageCoverage{}
	for _, vc := range base.Coverage.Vantages {
		baseCov[vc.Vantage] = vc
	}
	baseDown := map[string]float64{}
	for _, vr := range base.Vantages {
		baseDown[vr.Spec.Name] = studyDownTotal(vr.Study)
	}
	baseUnionDown := studyDownTotal(base.Union)

	out := &SuiteStudyResult{Suite: suite.Name, Baseline: base}
	for _, c := range compiled {
		fed, err := s.federate(c.Faults, c.ModifierFor)
		if err != nil {
			return nil, fmt.Errorf("iotmap: scenario %q: %w", c.Name, err)
		}
		res := ScenarioResult{Name: c.Name, Federation: fed}
		scenDown := map[string]float64{}
		for _, vr := range fed.Vantages {
			scenDown[vr.Spec.Name] = studyDownTotal(vr.Study)
		}
		for _, vc := range fed.Coverage.Vantages {
			bc := baseCov[vc.Vantage]
			res.Vantages = append(res.Vantages, VantageDelta{
				Vantage:          vc.Vantage,
				Backends:         vc.Backends,
				BaselineBackends: bc.Backends,
				HoursLost:        bc.HoursCovered - vc.HoursCovered,
				Degraded:         vc.Degraded,
				DownDeltaPct:     pctDelta(baseDown[vc.Vantage], scenDown[vc.Vantage]),
			})
		}
		res.UnionBackendsDelta = fed.Coverage.Union - base.Coverage.Union
		res.UnionDownDeltaPct = pctDelta(baseUnionDown, studyDownTotal(fed.Union))
		if c.Faults != nil {
			totals := c.Faults.Totals()
			res.FaultTotals = &totals
		}
		out.Scenarios = append(out.Scenarios, res)
	}
	out.Events = suite.Events(s.World)
	if len(out.Events) > 0 {
		var addrs []netip.Addr
		for _, id := range s.World.Order {
			addrs = append(addrs, s.Dedicated[id]...)
		}
		feed := bgpstream.NewFeed(out.Events)
		out.Impacts = feed.CheckImpactAt(addrs, suite.OriginAt(s.World))
	}
	return out, nil
}

// Disrupt runs the Section 6 analyses: the outage report when the run
// was configured with a scenario, and the BGP/blocklist checks.
func (s *System) Disrupt() error {
	if s.Study == nil {
		return fmt.Errorf("iotmap: TrafficStudy must run first")
	}
	if s.Cfg.Outage != nil {
		rep, err := disrupt.AnalyzeOutage(s.Study, *s.Cfg.Outage, s.World.Days)
		if err != nil {
			return err
		}
		s.OutageReport = &rep
		s.Cascade = disrupt.AnalyzeCascade(s.Study, *s.Cfg.Outage)
	}
	avoid := map[asdb.ASN]struct{}{}
	for _, as := range s.World.AS.ASes() {
		avoid[as.Number] = struct{}{}
	}
	cfg := bgpstream.PaperWeek(s.World.Days)
	cfg.AvoidASNs = avoid
	feed, err := bgpstream.Generate(cfg, s.Cfg.Seed)
	if err != nil {
		return err
	}
	agg := blocklist.BuildFireHOL(s.World, s.Cfg.Seed)
	var addrs []netip.Addr
	owners := map[netip.Addr]string{}
	for id, ded := range s.Dedicated {
		for _, a := range ded {
			addrs = append(addrs, a)
			owners[a] = id
		}
	}
	rep := disrupt.Analyze(feed, agg, addrs, s.World.AS, func(a netip.Addr) string { return owners[a] })
	s.Disruptions = &rep
	return nil
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
