// Package figures regenerates every table and figure of the paper's
// evaluation from a completed iotmap.System run, as plain-text artifacts
// (the repository's equivalent of the paper's plots; docs/architecture.md,
// "Layer 7 — figures", describes how they read the study).
package figures

import (
	"fmt"
	"sort"
	"strings"

	"iotmap"
	"iotmap/internal/analysis"
	"iotmap/internal/core/discovery"
	"iotmap/internal/core/footprint"
	"iotmap/internal/core/patterns"
	"iotmap/internal/geo"
	"iotmap/internal/proto"
)

// Table1 renders the measured provider characterization. The protocol
// column shows the documented services (the paper's Table 1 source) —
// scans alone cannot enumerate SNI- and mTLS-guarded ports.
func Table1(sys *iotmap.System) string {
	docPorts := map[string]string{}
	for _, d := range patterns.Docs() {
		docPorts[d.ProviderID] = strings.Join(d.Ports, ", ")
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1: IoT backends and base characteristics (measured)\n")
	fmt.Fprintf(&b, "%-12s %4s %9s %7s %5s %6s %7s  %s\n",
		"Provider", "#AS", "#v4-/24", "#v6-/56", "#Loc", "#Ctry", "Strat", "Protocols (documented) | open ports (scanned)")
	for _, id := range sys.ProviderIDs() {
		row, ok := sys.Rows[id]
		if !ok {
			continue
		}
		fmt.Fprintf(&b, "%-12s %4d %9d %7d %5d %6d %7s  %s | %s\n",
			id, row.ASes, row.V4Slash24, row.V6Slash56, row.Locations, row.Countries,
			row.Strategy, docPorts[id], row.PortsString())
	}
	return b.String()
}

// Table2 renders the Appendix A query excerpt.
func Table2() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2: generated domain patterns and queries\n")
	fmt.Fprintf(&b, "%-24s %-8s %-16s %s\n", "Provider", "Source", "API", "Query")
	for _, r := range patterns.Table2() {
		fmt.Fprintf(&b, "%-24s %-8s %-16s %s\n", r.Provider, r.Source, r.API, r.Query)
	}
	return b.String()
}

// Figure3 renders the per-source contribution per provider.
func Figure3(sys *iotmap.System) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 3: fraction and # of IPs per provider per source (day 1)\n")
	fmt.Fprintf(&b, "%-12s %6s | %6s %6s %6s %6s | %6s %s\n",
		"Provider", "v4 IPs", "cert%", "pdns%", "actv%", "multi%", "v6 IPs", "(v6 sources)")
	for _, id := range sys.ProviderIDs() {
		res := sys.Discovery[id]
		if res == nil || len(res.Days) == 0 {
			continue
		}
		day := res.Days[0]
		var v4, v6 int
		counts := map[string]int{}
		v6counts := map[string]int{}
		for i, id := range day.IDs {
			cat := exclusiveSource(day.Sources[i])
			if a := res.Addrs()[id]; a.Is4() || a.Is4In6() {
				v4++
				counts[cat]++
			} else {
				v6++
				v6counts[cat]++
			}
		}
		pct := func(c int) float64 {
			if v4 == 0 {
				return 0
			}
			return 100 * float64(c) / float64(v4)
		}
		fmt.Fprintf(&b, "%-12s %6d | %5.1f%% %5.1f%% %5.1f%% %5.1f%% | %6d %v\n",
			id, v4, pct(counts["cert"]), pct(counts["pdns"]), pct(counts["active"]), pct(counts["multi"]),
			v6, compactCounts(v6counts))
	}
	return b.String()
}

func exclusiveSource(s discovery.Source) string {
	if s.Count() > 1 {
		return "multi"
	}
	switch {
	case s.Has(discovery.SrcCert):
		return "cert"
	case s.Has(discovery.SrcPDNS):
		return "pdns"
	case s.Has(discovery.SrcActive):
		return "active"
	}
	return "none"
}

func compactCounts(m map[string]int) string {
	if len(m) == 0 {
		return ""
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%d", k, m[k]))
	}
	return "(" + strings.Join(parts, " ") + ")"
}

// Figure4 renders the stability bars (D-1, D-3, W vs the reference day).
func Figure4(sys *iotmap.System) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 4: stability of the server IP set vs Feb 28\n")
	fmt.Fprintf(&b, "%-12s %-8s %7s %8s %8s\n", "Provider", "Compare", "both%", "onlyRef%", "onlyNew%")
	for _, id := range sys.ProviderIDs() {
		res := sys.Discovery[id]
		if res == nil {
			continue
		}
		for _, cmp := range []struct {
			label string
			day   int
		}{{"D-1", 1}, {"D-3", 3}, {"W", len(res.Days) - 1}} {
			if cmp.day >= len(res.Days) {
				continue
			}
			diff, err := footprint.Stability(res, 0, cmp.day)
			if err != nil {
				continue
			}
			both, ref, cur := diff.Fractions()
			fmt.Fprintf(&b, "%-12s %-8s %6.1f%% %7.1f%% %7.1f%%\n",
				id, cmp.label, 100*both, 100*ref, 100*cur)
		}
	}
	return b.String()
}

// Figure5 renders the scanner-threshold sweep.
func Figure5(sys *iotmap.System) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 5: scanner threshold vs coverage and #scanner lines\n")
	fmt.Fprintf(&b, "%9s %12s %10s\n", "Threshold", "Coverage(%)", "#Scanners")
	for _, pt := range sys.Contacts.Curve([]int{10, 20, 50, 100, 200, 500, 1000}) {
		fmt.Fprintf(&b, "%9d %11.1f%% %10d\n", pt.Threshold, pt.CoveragePct, pt.Scanners)
	}
	return b.String()
}

// Figure6 renders per-provider backend visibility.
func Figure6(sys *iotmap.System) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 6: %% of server IPs visible at the ISP per platform\n")
	fmt.Fprintf(&b, "%-6s %8s %8s\n", "Alias", "IPv4", "IPv6")
	for _, alias := range sys.Study.Aliases() {
		v4, v6 := sys.Study.Visibility(alias)
		fmt.Fprintf(&b, "%-6s %7.1f%% %7.1f%%\n", alias, v4, v6)
	}
	return b.String()
}

// Figure7 renders the TLS-certificates-only line decrease.
func Figure7(sys *iotmap.System) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 7: %% decrease in IoT lines using TLS certificates only\n")
	fmt.Fprintf(&b, "%-6s %8s %8s\n", "Alias", "IPv4", "IPv6")
	for _, alias := range sys.Study.Aliases() {
		v4, v6 := sys.Study.CertOnlyDecrease(alias)
		fmt.Fprintf(&b, "%-6s %7.1f%% %7.1f%%\n", alias, v4, v6)
	}
	return b.String()
}

// seriesSummary condenses an hourly series into shape descriptors.
func seriesSummary(s *analysis.Series) string {
	if s.Max() == 0 {
		return "(no activity)"
	}
	// Average 24h profile across days.
	var prof [24]float64
	days := len(s.Values) / 24
	for d := 0; d < days; d++ {
		for h := 0; h < 24; h++ {
			prof[h] += s.Values[d*24+h]
		}
	}
	peakHour, peakVal := 0, 0.0
	total := 0.0
	for h, v := range prof {
		total += v
		if v > peakVal {
			peakVal, peakHour = v, h
		}
	}
	mean := total / 24
	flatness := 0.0
	if peakVal > 0 {
		flatness = mean / peakVal
	}
	return fmt.Sprintf("total=%s peak@%02dhUTC flatness=%.2f %s",
		analysis.HumanBytes(s.Total()), peakHour, flatness, sparkline(prof[:]))
}

func sparkline(vals []float64) string {
	marks := []rune("▁▂▃▄▅▆▇█")
	max := 0.0
	for _, v := range vals {
		if v > max {
			max = v
		}
	}
	if max == 0 {
		return ""
	}
	var sb strings.Builder
	for _, v := range vals {
		idx := int(v / max * float64(len(marks)-1))
		sb.WriteRune(marks[idx])
	}
	return sb.String()
}

// lineSummary is seriesSummary for line counts (no byte units).
func lineSummary(s *analysis.Series) string {
	if s.Max() == 0 {
		return "(no activity)"
	}
	var prof [24]float64
	days := len(s.Values) / 24
	for d := 0; d < days; d++ {
		for h := 0; h < 24; h++ {
			prof[h] += s.Values[d*24+h]
		}
	}
	peakHour, peakVal := 0, 0.0
	for h, v := range prof {
		if v > peakVal {
			peakVal, peakHour = v, h
		}
	}
	return fmt.Sprintf("max=%.0f lines/h peak@%02dhUTC %s", s.Max(), peakHour, sparkline(prof[:]))
}

// Figure8 renders hourly active subscriber lines per alias.
func Figure8(sys *iotmap.System) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 8: active subscriber lines per hour (24h profile)\n")
	for _, alias := range sys.Study.Aliases() {
		ser := sys.Study.ActiveLines(alias)
		if ser.Max() < 1 {
			continue
		}
		fmt.Fprintf(&b, "%-6s %s\n", alias, lineSummary(ser))
	}
	return b.String()
}

// Figure9 renders normalized downstream volume per alias.
func Figure9(sys *iotmap.System) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 9: normalized downstream traffic volume (24h profile)\n")
	for _, alias := range sys.Study.Aliases() {
		ser := sys.Study.Downstream(alias)
		if ser.Total() == 0 {
			continue
		}
		fmt.Fprintf(&b, "%-6s %s\n", alias, seriesSummary(ser))
	}
	return b.String()
}

// Figure10 renders down/up ratios per alias.
func Figure10(sys *iotmap.System) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 10: downstream/upstream byte ratio\n")
	fmt.Fprintf(&b, "%-6s %8s\n", "Alias", "Ratio")
	for _, alias := range sys.Study.Aliases() {
		r := sys.Study.OverallRatio(alias)
		if r == 0 {
			continue
		}
		fmt.Fprintf(&b, "%-6s %8.2f\n", alias, r)
	}
	return b.String()
}

// Figure11 renders the port/volume heatmap.
func Figure11(sys *iotmap.System) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 11: %% traffic volume per port and platform\n")
	ports := sys.Study.TopPorts(14)
	fmt.Fprintf(&b, "%-20s", "Port")
	aliases := sys.Study.Aliases()
	for _, a := range aliases {
		fmt.Fprintf(&b, " %6s", a)
	}
	fmt.Fprintln(&b)
	shareOf := map[string]map[proto.PortKey]float64{}
	for _, a := range aliases {
		m := map[proto.PortKey]float64{}
		for _, ps := range sys.Study.PortShares(a) {
			m[ps.Port] = ps.Share
		}
		shareOf[a] = m
	}
	for _, p := range ports {
		fmt.Fprintf(&b, "%-20s", proto.IANAName(p))
		for _, a := range aliases {
			fmt.Fprintf(&b, " %5.1f%%", 100*shareOf[a][p])
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}

// Figure12 renders the three daily-volume ECDFs. The ECDFs are
// independent reads of the Study, so they are built on a worker pool:
// the two daily ones first (the largest job), then one per alias and one
// per top port.
func Figure12(sys *iotmap.System) string {
	aliases, ports := sys.Study.Aliases(), sys.Study.TopPorts(7)
	var down, up *analysis.ECDF
	ecdfs := make([]*analysis.ECDF, len(aliases)+len(ports))
	analysis.ForEach(1+len(ecdfs), func(job int) {
		switch i := job - 1; {
		case job == 0:
			down, up = sys.Study.DailyECDFs()
		case i < len(aliases):
			ecdfs[i] = sys.Study.AliasDailyECDF(aliases[i])
		default:
			ecdfs[i] = sys.Study.PortDailyECDF(ports[i-len(aliases)])
		}
	})

	var b strings.Builder
	fmt.Fprintf(&b, "Figure 12a: per-line daily volume ECDF (all backends)\n")
	fmt.Fprintf(&b, "  downstream: n=%d  P(<=1MB)=%.2f  P(<=10MB)=%.2f  p99=%s\n",
		down.Len(), down.At(1e6), down.At(10e6), analysis.HumanBytes(down.Quantile(0.99)))
	fmt.Fprintf(&b, "  upstream:   n=%d  P(<=1MB)=%.2f  P(<=10MB)=%.2f  p99=%s\n",
		up.Len(), up.At(1e6), up.At(10e6), analysis.HumanBytes(up.Quantile(0.99)))

	fmt.Fprintf(&b, "Figure 12b: per-line daily downstream per platform\n")
	for i, alias := range aliases {
		e := ecdfs[i]
		if e.Len() == 0 {
			continue
		}
		fmt.Fprintf(&b, "  %-6s n=%-7d median=%-9s P(<=10MB)=%.2f\n",
			alias, e.Len(), analysis.HumanBytes(e.Quantile(0.5)), e.At(10e6))
	}

	fmt.Fprintf(&b, "Figure 12c: per-line daily downstream per port\n")
	for i, p := range ports {
		e := ecdfs[len(aliases)+i]
		if e.Len() == 0 {
			continue
		}
		fmt.Fprintf(&b, "  %-18s n=%-7d median=%-9s P(100MB..1GB)=%.2f\n",
			proto.IANAName(p), e.Len(), analysis.HumanBytes(e.Quantile(0.5)), e.Between(100e6, 1e9))
	}
	return b.String()
}

// Figure13 renders the line/server continent shares.
func Figure13(sys *iotmap.System) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 13: %% of lines vs %% of servers per continent\n")
	lines := sys.Study.LineContinentShares()
	fmt.Fprintf(&b, "  lines: EU-only=%.0f%%  US-only=%.0f%%  EU+US=%.0f%%  Asia/Other=%.0f%%\n",
		100*lines["EU-only"], 100*lines["US-only"], 100*lines["EU+US"], 100*lines["Asia/Other"])
	servers := sys.Study.ServerContinentShares()
	fmt.Fprintf(&b, "  servers: US=%.0f%%  EU=%.0f%%  Asia=%.0f%%  other=%.0f%%\n",
		100*servers[geo.NorthAmerica], 100*servers[geo.Europe], 100*servers[geo.Asia],
		100*(1-servers[geo.NorthAmerica]-servers[geo.Europe]-servers[geo.Asia]))
	return b.String()
}

// Figure14 renders traffic shares per server continent.
func Figure14(sys *iotmap.System) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 14: %% of traffic exchanged per server continent\n")
	tr := sys.Study.TrafficContinentShares()
	fmt.Fprintf(&b, "  EU=%.0f%%  US=%.0f%%  Asia=%.0f%%  other=%.0f%%\n",
		100*tr[geo.Europe], 100*tr[geo.NorthAmerica], 100*tr[geo.Asia],
		100*(1-tr[geo.Europe]-tr[geo.NorthAmerica]-tr[geo.Asia]))
	return b.String()
}

// Figure15 renders the outage traffic view.
func Figure15(sys *iotmap.System) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 15: T1 normalized downstream during the AWS outage\n")
	if sys.Study == nil || sys.Study.FocusDownAll == nil {
		return b.String() + "  (no focus series; run with an outage scenario)\n"
	}
	fmt.Fprintf(&b, "  All:     %s\n", seriesSummary(sys.Study.FocusDownAll))
	fmt.Fprintf(&b, "  US-East: %s\n", seriesSummary(sys.Study.FocusDownRegion))
	fmt.Fprintf(&b, "  EU:      %s\n", seriesSummary(sys.Study.FocusDownEU))
	if rep := sys.OutageReport; rep != nil {
		fmt.Fprintf(&b, "  region drop=%.1f%% (below prior min: %v), EU dip=%.1f%%, EU/US-East volume=%.1fx\n",
			rep.RegionDropPct, rep.BelowPriorMin, rep.EUDipPct, rep.EUOverRegionFactor)
	}
	return b.String()
}

// Figure16 renders the outage line-count view.
func Figure16(sys *iotmap.System) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 16: T1 subscriber lines during the AWS outage\n")
	if sys.Study == nil || sys.Study.FocusLinesAll == nil {
		return b.String() + "  (no focus series; run with an outage scenario)\n"
	}
	fmt.Fprintf(&b, "  All:     %s\n", lineSummary(sys.Study.FocusLinesAll))
	fmt.Fprintf(&b, "  US-East: %s\n", lineSummary(sys.Study.FocusLinesRegion))
	fmt.Fprintf(&b, "  EU:      %s\n", lineSummary(sys.Study.FocusLinesEU))
	if rep := sys.OutageReport; rep != nil {
		fmt.Fprintf(&b, "  region line dip=%.1f%%, EU line dip=%.1f%%\n",
			rep.RegionLinesDipPct, rep.EULinesDipPct)
	}
	return b.String()
}

// Cascade renders the §6.1 dependent-platform check during an outage.
func Cascade(sys *iotmap.System) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Section 6.1: outage impact per platform (same-hours drop)\n")
	if sys.Cascade == nil {
		return b.String() + "  (run with an outage scenario)\n"
	}
	for _, e := range sys.Cascade {
		mark := ""
		if e.Affected {
			mark = "  <-- affected"
		}
		if e.LowSample {
			mark = "  (low sample)"
		}
		fmt.Fprintf(&b, "  %-6s %6.1f%%%s\n", e.Alias, e.WindowDropPct, mark)
	}
	return b.String()
}

// Section62 renders the potential-disruptions summary.
func Section62(sys *iotmap.System) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Section 6.2: potential disruptions\n")
	rep := sys.Disruptions
	if rep == nil {
		return b.String() + "  (run Disrupt first)\n"
	}
	fmt.Fprintf(&b, "  BGP events: %d leaks, %d possible hijacks, %d AS outages — %d affecting backends\n",
		rep.Leaks, rep.Hijacks, rep.ASOutages, len(rep.Impacts))
	fmt.Fprintf(&b, "  Blocklists: %d lists, %d addresses; %d backend IPs listed\n",
		rep.BlocklistLists, rep.BlocklistSize, len(rep.Hits))
	ids := make([]string, 0, len(rep.HitsPerProvider))
	for id := range rep.HitsPerProvider {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		if rep.HitsPerProvider[ids[i]] != rep.HitsPerProvider[ids[j]] {
			return rep.HitsPerProvider[ids[i]] > rep.HitsPerProvider[ids[j]]
		}
		return ids[i] < ids[j]
	})
	for _, id := range ids {
		fmt.Fprintf(&b, "    %-12s %d IPs\n", id, rep.HitsPerProvider[id])
	}
	return b.String()
}

// ValidationReport renders the Section 3.4 ground-truth checks.
// Providers print in sorted order so the report is deterministic.
func ValidationReport(sys *iotmap.System) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Section 3.4: validation against ground truth\n")
	for _, id := range sortedKeys(sys.Validation.IPs) {
		rep := sys.Validation.IPs[id]
		fmt.Fprintf(&b, "  %-10s disclosed=%d covered=%d (%.0f%%)\n",
			id, rep.Disclosed, rep.Covered, 100*rep.Coverage())
	}
	for _, id := range sortedKeys(sys.Validation.Prefixes) {
		rep := sys.Validation.Prefixes[id]
		fmt.Fprintf(&b, "  %-10s prefixes=%d (~%d addrs) found=%d inside=%d outside=%d\n",
			id, rep.Prefixes, rep.CoveredAddrs, rep.Found, rep.Inside, len(rep.Outside))
	}
	for _, id := range sortedKeys(sys.CrossCheck) {
		rep := sys.CrossCheck[id]
		fmt.Fprintf(&b, "  %-10s traffic-active=%d found=%d missed=%d volumeMiss=%.2f%%\n",
			id, rep.Active, rep.FoundActive, len(rep.Missed), 100*rep.VolumeMissFrac)
	}
	return b.String()
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// FederationCoverage renders the cross-vantage coverage comparison of a
// federated run (a FederationStudy or one suite scenario): backends and
// providers visible per vantage, each vantage's exclusive contribution,
// and the union — the paper's which-vantage-sees-what angle, quantified.
func FederationCoverage(fed *iotmap.FederationResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Federation: backend visibility per vantage point\n")
	if fed == nil || fed.Coverage == nil {
		return b.String() + "  (run FederationStudy first)\n"
	}
	cov := fed.Coverage
	fmt.Fprintf(&b, "%-12s %9s %10s %10s\n", "Vantage", "Backends", "Exclusive", "Providers")
	for _, vc := range cov.Vantages {
		fmt.Fprintf(&b, "%-12s %9d %10d %10d", vc.Vantage, vc.Backends, vc.Exclusive, vc.Providers)
		// Degraded-feed annotation only when a vantage lost hours its
		// siblings covered, so clean runs render byte-identically to the
		// pre-annotation format.
		if vc.Degraded {
			fmt.Fprintf(&b, "  DEGRADED (%d/%d hours)", vc.HoursCovered, vc.HoursTotal)
		}
		fmt.Fprintln(&b)
	}
	fmt.Fprintf(&b, "%-12s %9d %10s %10s  (%d visible at every vantage)\n",
		"union", cov.Union, "-", "-", cov.Everywhere)
	names := make([]string, 0, len(cov.Vantages))
	for _, vc := range cov.Vantages {
		names = append(names, vc.Vantage)
	}
	fmt.Fprintf(&b, "per-provider (union / everywhere / per vantage):\n")
	for _, ac := range cov.Aliases {
		fmt.Fprintf(&b, "  %-6s %5d %5d  |", ac.Alias, ac.Union, ac.Everywhere)
		for _, name := range names {
			fmt.Fprintf(&b, " %s=%d", name, ac.PerVantage[name])
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}

// SuiteDeltas renders a scenario suite's full outcome: the per-step
// (and cumulative) impact tables — per-vantage and union changes in
// visible backends, downstream volume, and feed-hour coverage versus the
// clean baseline — with their fault ledgers, followed by the suite's
// control-plane view: every injected BGP event and which of them touched
// a monitored backend under migration-aware AS origin resolution (the
// §6.2 what-if answered for the suite).
func SuiteDeltas(res *iotmap.SuiteStudyResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Scenario suite %q\n", res.Suite)
	fmt.Fprintf(&b, "Disruption study: federation deltas vs clean baseline\n")
	for _, sc := range res.Scenarios {
		fmt.Fprintf(&b, "scenario %s:\n", sc.Name)
		fmt.Fprintf(&b, "  %-12s %9s %10s %10s %10s\n", "Vantage", "Backends", "ΔBackends", "ΔDown%", "HoursLost")
		for _, vd := range sc.Vantages {
			fmt.Fprintf(&b, "  %-12s %9d %10d %9.1f%% %10d", vd.Vantage,
				vd.Backends, vd.Backends-vd.BaselineBackends, vd.DownDeltaPct, vd.HoursLost)
			if vd.Degraded {
				fmt.Fprintf(&b, "  DEGRADED")
			}
			fmt.Fprintln(&b)
		}
		fmt.Fprintf(&b, "  %-12s %9s %10d %9.1f%%\n", "union", "-",
			sc.UnionBackendsDelta, sc.UnionDownDeltaPct)
		if ft := sc.FaultTotals; ft != nil {
			fmt.Fprintf(&b, "  fault ledger: %d corrupted, %d dropped, %d duplicated, %d truncated, killed=%v\n",
				ft.Corrupted, ft.Dropped, ft.Duplicated, ft.Truncated, ft.Killed)
		}
	}
	if len(res.Events) > 0 {
		fmt.Fprintf(&b, "injected BGP events: %d\n", len(res.Events))
		fmt.Fprintf(&b, "backend impacts (time-aware origins): %d\n", len(res.Impacts))
		const maxImpactLines = 12
		for i, im := range res.Impacts {
			if i == maxImpactLines {
				fmt.Fprintf(&b, "  ... and %d more\n", len(res.Impacts)-maxImpactLines)
				break
			}
			switch {
			case im.Addr.IsValid():
				fmt.Fprintf(&b, "  %s %s covers backend %s\n", im.Event.Kind, im.Event.Prefix, im.Addr)
			default:
				fmt.Fprintf(&b, "  %s AS%d hosts monitored backends\n", im.Event.Kind, im.ASN)
			}
		}
	}
	return b.String()
}

// VantagePointGain renders the §3.3 multi-VP coverage gain.
func VantagePointGain(sys *iotmap.System) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Section 3.3: coverage gain from three DNS vantage points\n")
	for _, id := range sys.ProviderIDs() {
		if res := sys.Discovery[id]; res != nil && res.VPGain > 0 {
			fmt.Fprintf(&b, "  %-12s +%.1f%%\n", id, 100*res.VPGain)
		}
	}
	return b.String()
}
