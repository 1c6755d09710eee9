package iotmap

import (
	"errors"
	"fmt"
	"io"
	"net/netip"
	"runtime"

	"iotmap/internal/collector"
	"iotmap/internal/core/flows"
	"iotmap/internal/core/validate"
	"iotmap/internal/faultwire"
	"iotmap/internal/isp"
)

// Traffic is the traffic stage's result for one vantage world: the
// System's own, from TrafficStudy, or one vantage's of a federated run.
type Traffic struct {
	// Net is the vantage's subscriber world.
	Net *isp.Network
	// Contacts and Study are the Figure 5 counter and the Section 5
	// analysis.
	Contacts *flows.ContactCounter
	Study    *flows.Study
	// WireExport/WireIngest are the wire-mode transfer counters (nil in
	// memory mode): what the border routers framed onto the streams, and
	// what the collector decoded, scaled, and folded back out of them.
	// WireStreams breaks the ingest down per stream, with vantage
	// attribution, so anomalies point at the feed that produced them.
	WireExport  *isp.WireStats
	WireIngest  *collector.Stats
	WireStreams []collector.StreamStat
	// CrossCheck is the Section 3.4 active-traffic validation of each
	// prefix-disclosing provider against this Study's per-backend
	// volumes ("52 active IPs, 4 missed, <1% volume").
	CrossCheck map[string]validate.TrafficReport
}

// errNotValidated is the order check of the stages that read the
// Validated result.
var errNotValidated = errors.New("iotmap: ValidateAndLocate must run first")

// TrafficStudy runs the single-pass sharded simulate→aggregate pipeline
// over the validated backend sets: line-major workers each simulate
// their lines' whole week straight into a worker-local aggregate,
// scanner lines are classified the moment their week completes
// (Section 5.2's Richter-style exclusion), and the shard partials merge
// order-independently into the Figure 5 contact curve and the full
// Section 5 traffic study — one simulation pass for both analyses, as
// the paper runs both over the same recorded NetFlow feed. The network
// is the run's own vantage: Config.Seed and Config.Lines with the ISP
// model defaults.
func (s *System) TrafficStudy() error {
	if s.Index == nil {
		return errNotValidated
	}
	run, err := s.vantage(s.Index, 0, VantageSpec{Seed: s.Cfg.Seed, Lines: s.Cfg.Lines}, nil, nil)
	if err != nil {
		return err
	}
	cc, col := flows.MergePartials(run.parts)
	run.Contacts, run.Study = cc, col.Study()
	run.CrossCheck = s.trafficCrossCheck(&s.Discovered, &s.Validated, run.Study)
	s.Traffic = run.Traffic
	return nil
}

// trafficCrossCheck checks each prefix-disclosing provider's discovered
// addresses against the per-backend volume evidence of a completed
// study (Section 3.4's active-traffic validation).
func (s *System) trafficCrossCheck(d *Discovered, v *Validated, st *flows.Study) map[string]validate.TrafficReport {
	volumes := st.BackendVolumes()
	out := map[string]validate.TrafficReport{}
	for id := range v.Validation.Prefixes {
		perProvider := map[netip.Addr]float64{}
		for a, vol := range volumes {
			if srv, ok := s.World.ServerAt(a); ok && srv.Provider == id {
				perProvider[a] = vol
			}
		}
		out[id] = validate.AgainstTraffic(d.Discovery[id].Addrs(), perProvider)
	}
	return out
}

// TrafficInputs returns the traffic stage's raw material — the network
// TrafficStudy simulates (with any configured outage modifier installed)
// and the backend Index — without running an analysis. Standalone
// exporter/collector frontends (cmd/iotcollect) use it to drive the
// wire path by hand. Requires ValidateAndLocate.
func (s *System) TrafficInputs() (*isp.Network, *flows.BackendIndex, error) {
	if s.Index == nil {
		return nil, nil, errNotValidated
	}
	net, err := s.vantageNetwork(0, VantageSpec{Seed: s.Cfg.Seed, Lines: s.Cfg.Lines}, nil)
	if err != nil {
		return nil, nil, err
	}
	return net, s.Index, nil
}

// vantageNetwork builds vantage i's subscriber world from its spec. A
// backend-side outage (Config.Outage) is visible from every vantage, so
// it comes first and the vantage's own modifier (modifierFor, nil: none)
// after it: first drop wins, so flows the vantage modifier leaves alone
// stay bit-identical to a modifier-less baseline.
func (s *System) vantageNetwork(i int, sp VantageSpec, modifierFor func(vantage string) isp.FlowModifier) (*isp.Network, error) {
	net, err := isp.NewNetwork(isp.Config{
		Seed:            sp.Seed,
		Lines:           sp.Lines,
		SamplingRate:    sp.SamplingRate,
		ScannerFraction: sp.ScannerFraction,
		VantageID:       i,
		ContinentBias:   sp.ContinentMix,
	}, s.World)
	if err != nil {
		return nil, err
	}
	var mods []isp.FlowModifier
	if s.Cfg.Outage != nil {
		mods = append(mods, s.Cfg.Outage.Modifier())
	}
	if modifierFor != nil {
		mods = append(mods, modifierFor(sp.Name))
	}
	net.Modifier = isp.ChainModifiers(mods...)
	return net, nil
}

// vantage builds vantage i's world and drives it through the
// Config.TrafficMode data path against the backend index idx, splicing
// faults (nil: clean wire) into every wire stream. It is the one
// per-vantage path: TrafficStudy runs it once for the run's own network,
// the federation once per spec.
func (s *System) vantage(idx *flows.BackendIndex, i int, sp VantageSpec, modifierFor func(vantage string) isp.FlowModifier, faults *faultwire.Scenario) (pipelineRun, error) {
	net, err := s.vantageNetwork(i, sp, modifierFor)
	if err != nil {
		return pipelineRun{}, err
	}
	focusRegion := "us-east-1"
	if s.Cfg.Outage != nil {
		focusRegion = s.Cfg.Outage.Region
	}
	return s.runPipeline(idx, net, flows.Options{
		ScannerThreshold: s.Cfg.ScannerThreshold,
		SamplingRate:     net.Cfg.SamplingRate,
		FocusAlias:       "T1",
		FocusRegion:      focusRegion,
		Vantage:          sp.Name,
	}, faults)
}

// pipelineRun is one vantage world pushed through the configured
// traffic data path: its Traffic, whose analyses (Contacts, Study,
// CrossCheck) wait for the merge, and the vantage-tagged shard partials
// the merge folds.
type pipelineRun struct {
	Traffic
	parts []*flows.ShardPartial
}

// runPipeline drives one network through the Config.TrafficMode data
// path into shard partials classified against idx. Memory mode folds the
// simulator's rows into them; wire mode exports every line shard as a
// dictionary stream over an in-process pipe (synchronous — collector
// backpressure throttles the exporter), splices faults (nil: clean wire)
// into every stream, and decodes, validates, and rescales it back.
// Merging the partials yields byte-identical results either way.
func (s *System) runPipeline(idx *flows.BackendIndex, net *isp.Network, opts flows.Options, faults *faultwire.Scenario) (pipelineRun, error) {
	switch s.Cfg.TrafficMode {
	case TrafficModeMemory, "":
		agg := flows.NewShardedAggregator(idx, s.World.Days, opts, runtime.GOMAXPROCS(0))
		agg.Simulate(net)
		parts := make([]*flows.ShardPartial, agg.Shards())
		for i := range parts {
			parts[i] = agg.Shard(i)
		}
		return pipelineRun{Traffic: Traffic{Net: net}, parts: parts}, nil
	case TrafficModeWire:
		streams := s.Cfg.WireStreams
		if streams <= 0 {
			streams = runtime.GOMAXPROCS(0)
		}
		ccfg := collector.Config{Index: idx, Days: s.World.Days, Opts: opts, Policy: s.Cfg.WirePolicy}
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
		return pipelineRun{Traffic: Traffic{
			Net:         net,
			WireExport:  &wireStats,
			WireIngest:  &ingestStats,
			WireStreams: col.StreamStats(),
		}, parts: col.Partials()}, nil
	default:
		return pipelineRun{}, fmt.Errorf("iotmap: unknown TrafficMode %q", s.Cfg.TrafficMode)
	}
}
