package iotmap

import (
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
	s.WireExport, s.WireIngest, s.WireStreams = nil, nil, nil
	run, err := s.vantage(0, VantageSpec{Seed: s.Cfg.Seed, Lines: s.Cfg.Lines}, nil, nil)
	if err != nil {
		return err
	}
	s.Net = run.net
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

// TrafficInputs returns the traffic stage's raw material — the network
// TrafficStudy simulates (with any configured outage modifier installed)
// and the backend Index — without running an analysis. Standalone
// exporter/collector frontends (cmd/iotcollect) use it to drive the
// wire path by hand. Requires ValidateAndLocate.
func (s *System) TrafficInputs() (*isp.Network, *flows.BackendIndex, error) {
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
// stay bit-identical to a modifier-less baseline. Requires
// ValidateAndLocate.
func (s *System) vantageNetwork(i int, sp VantageSpec, modifierFor func(vantage string) isp.FlowModifier) (*isp.Network, error) {
	if s.Index == nil {
		return nil, fmt.Errorf("iotmap: ValidateAndLocate must run first")
	}
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
// Config.TrafficMode data path, splicing faults (nil: clean wire) into
// every wire stream. It is the one per-vantage path: TrafficStudy runs
// it once for the run's own network, the federation once per spec.
func (s *System) vantage(i int, sp VantageSpec, modifierFor func(vantage string) isp.FlowModifier, faults *faultwire.Scenario) (pipelineRun, error) {
	net, err := s.vantageNetwork(i, sp, modifierFor)
	if err != nil {
		return pipelineRun{}, err
	}
	focusRegion := "us-east-1"
	if s.Cfg.Outage != nil {
		focusRegion = s.Cfg.Outage.Region
	}
	run, err := s.runPipeline(net, flows.Options{
		ScannerThreshold: s.Cfg.ScannerThreshold,
		SamplingRate:     net.Cfg.SamplingRate,
		FocusAlias:       "T1",
		FocusRegion:      focusRegion,
		Vantage:          sp.Name,
	}, faults)
	run.net = net
	return run, err
}

// pipelineRun is one vantage world pushed through the configured
// traffic data path: the network, its vantage-tagged shard partials,
// plus the wire transfer stats when the feed crossed the wire (nil in
// memory mode).
type pipelineRun struct {
	net         *isp.Network
	parts       []*flows.ShardPartial
	wireExport  *isp.WireStats
	wireIngest  *collector.Stats
	streamStats []collector.StreamStat
}

// runPipeline drives one network through the Config.TrafficMode data
// path into shard partials. Memory mode folds the simulator's rows into
// them; wire mode exports every line shard as a dictionary stream over
// an in-process pipe (synchronous — collector backpressure throttles
// the exporter), splices faults (nil: clean wire) into every stream,
// and decodes, validates, and rescales it back.
// Merging the partials yields byte-identical results either way.
func (s *System) runPipeline(net *isp.Network, opts flows.Options, faults *faultwire.Scenario) (pipelineRun, error) {
	switch s.Cfg.TrafficMode {
	case TrafficModeMemory, "":
		agg := flows.NewShardedAggregator(s.Index, s.World.Days, opts, runtime.GOMAXPROCS(0))
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
		ccfg := collector.Config{Index: s.Index, Days: s.World.Days, Opts: opts, Policy: s.Cfg.WirePolicy}
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
