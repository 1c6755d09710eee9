package iotmap

import (
	"fmt"
	"net/netip"

	"iotmap/internal/asdb"
	"iotmap/internal/bgpstream"
	"iotmap/internal/blocklist"
	"iotmap/internal/core/disrupt"
)

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
