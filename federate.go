package iotmap

import (
	"fmt"
	"net/netip"

	"iotmap/internal/analysis"
	"iotmap/internal/bgpstream"
	"iotmap/internal/core/flows"
	"iotmap/internal/faultwire"
	"iotmap/internal/isp"
	"iotmap/internal/scenario"
	"iotmap/internal/simrand"
)

// VantageResult is one vantage's slice of a federated run: the
// normalized spec the vantage ran with, and its Traffic — exactly what
// a single-vantage TrafficStudy over this world would produce.
type VantageResult struct {
	Spec VantageSpec
	Traffic
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
// The vantage worlds are independent until the merge, so they run on
// the GOMAXPROCS worker pool; partials are collected in spec order and
// the merge is order-independent, so the result is identical to a
// sequential drive. With no Vantages configured it runs one default
// vantage whose study is byte-identical to TrafficStudy's. Requires
// ValidateAndLocate.
func (s *System) FederationStudy() error {
	if s.Index == nil {
		return errNotValidated
	}
	fed, err := s.federate(&s.Discovered, &s.Validated, nil, nil)
	if err != nil {
		return err
	}
	s.Federation = fed
	return nil
}

// federate runs the configured federation over the given stage results
// with the given wire-fault schedule (nil: clean wire) and per-vantage
// traffic modifiers (nil: none), and returns the result without storing
// anything in the System. FederationStudy and every DisruptionSuite
// scenario run go through it, so a scenario differs from its baseline
// only by what it passes here.
func (s *System) federate(d *Discovered, v *Validated, faults *faultwire.Scenario, modifierFor func(vantage string) isp.FlowModifier) (*FederationResult, error) {
	specs, err := s.vantageSpecs()
	if err != nil {
		return nil, err
	}
	// Align the fault schedule's hour clock with the study period before
	// any pipeline starts, so repeated runs stay deterministic.
	if faults != nil && faults.Start.IsZero() {
		faults.Start = s.World.Days[0]
	}
	runs := make([]pipelineRun, len(specs))
	errs := make([]error, len(specs))
	analysis.ForEach(len(specs), func(i int) {
		runs[i], errs[i] = s.vantage(v.Index, i, specs[i], modifierFor, faults)
	})
	var parts []*flows.ShardPartial
	for i, sp := range specs {
		if errs[i] != nil {
			return nil, fmt.Errorf("iotmap: vantage %q: %w", sp.Name, errs[i])
		}
		parts = append(parts, runs[i].parts...)
	}

	fed := flows.FederatedMerge(parts)
	results := make([]*VantageResult, len(specs))
	for i, sp := range specs {
		t := runs[i].Traffic
		t.Contacts, t.Study = fed.CC[sp.Name], fed.Col[sp.Name].Study()
		t.CrossCheck = s.trafficCrossCheck(d, v, t.Study)
		results[i] = &VantageResult{Spec: sp, Traffic: t}
	}
	return &FederationResult{
		Vantages:      results,
		Union:         fed.UnionCol.Study(),
		UnionContacts: fed.UnionCC,
		Coverage:      fed.Coverage(),
	}, nil
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
// Wire rules are the one way to inject wire faults: each compiled
// scenario's fault schedule carries its own derived seed. Wire rules
// act on the exported streams, so a suite with any is refused unless
// Config.TrafficMode is TrafficModeWire. Requires ValidateAndLocate.
func (s *System) DisruptionSuite(suite scenario.Suite) (*SuiteStudyResult, error) {
	compiled, err := suite.Compile(s.World)
	if err != nil {
		return nil, err
	}
	if s.Cfg.TrafficMode != TrafficModeWire {
		for _, c := range compiled {
			if c.Faults != nil {
				return nil, fmt.Errorf("iotmap: scenario %q has wire rules, which need TrafficMode %q", c.Name, TrafficModeWire)
			}
		}
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
		fed, err := s.federate(&s.Discovered, &s.Validated, c.Faults, c.ModifierFor)
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
