package flows

import (
	"net/netip"
	"sort"

	"iotmap/internal/analysis"
	"iotmap/internal/geo"
	"iotmap/internal/proto"
)

// Study is the finalized traffic analysis. Study() is the dense→named
// conversion boundary: the collector's ID-indexed slices and bitsets
// are materialized back into the historical address- and alias-keyed
// shape here, once, so every figure renders byte-identically to the
// map-keyed implementation while the hot path stays dense.
type Study struct {
	idx   *BackendIndex
	days  int
	hours int

	visible        map[string]map[netip.Addr]struct{}
	activeLines    map[string]*analysis.Series
	downHour       map[string]*analysis.Series
	upHour         map[string]*analysis.Series
	portVol        map[string]map[proto.PortKey]float64
	lineDaily      map[netip.Addr][][2]float64
	lineAliasDaily map[lineAliasKey][]float64
	linePortDaily  map[linePortKey][]float64
	lineAliases    map[lineAliasKey]struct{}
	lineCertSeen   map[lineAliasKey]struct{}
	lineConts      map[netip.Addr]uint8
	contVol        map[geo.Continent]float64
	backendVol     map[netip.Addr]float64

	FocusDownAll, FocusDownRegion, FocusDownEU    *analysis.Series
	FocusLinesAll, FocusLinesRegion, FocusLinesEU *analysis.Series
}

// Study finalizes the collector.
func (c *Collector) Study() *Study {
	c.idx.checkGen(c.gen)
	idx := c.idx
	s := &Study{
		idx:            idx,
		days:           c.ds,
		hours:          c.hours,
		visible:        map[string]map[netip.Addr]struct{}{},
		activeLines:    map[string]*analysis.Series{},
		downHour:       map[string]*analysis.Series{},
		upHour:         map[string]*analysis.Series{},
		portVol:        map[string]map[proto.PortKey]float64{},
		lineDaily:      map[netip.Addr][][2]float64{},
		lineAliasDaily: map[lineAliasKey][]float64{},
		linePortDaily:  map[linePortKey][]float64{},
		lineAliases:    map[lineAliasKey]struct{}{},
		lineCertSeen:   map[lineAliasKey]struct{}{},
		lineConts:      map[netip.Addr]uint8{},
		contVol:        map[geo.Continent]float64{},
		backendVol:     map[netip.Addr]float64{},
	}

	for a := 0; a < c.nAliases; a++ {
		name := idx.aliasNames[a]
		if vs := c.visible[a]; vs != nil {
			set := map[netip.Addr]struct{}{}
			forEachBit(vs, func(b int) { set[idx.addrs[b]] = struct{}{} })
			s.visible[name] = set
		}
		if lh := c.lineHours[a]; lh != nil {
			s.activeLines[name] = hoursToSeries(name, lh, c.hw, c.hours)
		}
		if ser := c.downHour[a]; ser != nil {
			s.downHour[name] = cloneSeries(ser)
		}
		if ser := c.upHour[a]; ser != nil {
			s.upHour[name] = cloneSeries(ser)
		}
		if pv := c.portVol[a]; pv != nil {
			m := map[proto.PortKey]float64{}
			forEachBit(c.portSeen[a], func(pid int) { m[c.ports.keys[pid]] = pv[pid] })
			s.portVol[name] = m
		}
	}

	ds2 := 2 * c.ds
	for i, addr := range c.lines.addrs {
		days := make([][2]float64, c.ds)
		for d := 0; d < c.ds; d++ {
			days[d] = [2]float64{c.lineDaily[i*ds2+2*d], c.lineDaily[i*ds2+2*d+1]}
		}
		s.lineDaily[addr] = days
		s.lineConts[addr] = c.lineConts[i]
		forEachBit(c.lineAliasBits[i*c.aw:(i+1)*c.aw], func(a int) {
			s.lineAliases[lineAliasKey{line: addr, alias: idx.aliasNames[a]}] = struct{}{}
		})
		forEachBit(c.lineCertBits[i*c.aw:(i+1)*c.aw], func(a int) {
			s.lineCertSeen[lineAliasKey{line: addr, alias: idx.aliasNames[a]}] = struct{}{}
		})
	}
	for slot, k := range c.laKeys {
		key := lineAliasKey{line: c.lines.addrs[k.line], alias: idx.aliasNames[k.alias]}
		s.lineAliasDaily[key] = append([]float64(nil), c.laDaily[slot*c.ds:(slot+1)*c.ds]...)
	}
	for slot, k := range c.lpKeys {
		key := linePortKey{line: c.lines.addrs[k.line], port: c.ports.keys[k.port]}
		s.linePortDaily[key] = append([]float64(nil), c.lpDaily[slot*c.ds:(slot+1)*c.ds]...)
	}
	// Continent volumes are the per-backend volumes regrouped: exact,
	// because volumes are integer-valued (see Collector.Merge), and a
	// zero-byte backend still creates its continent's key.
	forEachBit(c.backendSeen, func(b int) {
		s.backendVol[idx.addrs[b]] = c.backendVol[b]
		s.contVol[idx.infos[b].cont] += c.backendVol[b]
	})

	if c.focusAlias != "" {
		s.FocusDownAll = cloneSeries(c.focusDownAll)
		s.FocusDownRegion = cloneSeries(c.focusDownRegion)
		s.FocusDownEU = cloneSeries(c.focusDownEU)
		s.FocusLinesAll = hoursToSeries(c.focusAlias+": All lines", c.focusHoursAll, c.hw, c.hours)
		s.FocusLinesRegion = hoursToSeries(c.focusAlias+": region lines", c.focusHoursRegion, c.hw, c.hours)
		s.FocusLinesEU = hoursToSeries(c.focusAlias+": EU lines", c.focusHoursEU, c.hw, c.hours)
	}
	return s
}

// hoursToSeries counts, per hour, the lines whose hour bit is set.
func hoursToSeries(label string, lineHours []uint64, hw, hours int) *analysis.Series {
	ser := analysis.NewSeries(label, hours)
	counts := make([]int, hours)
	for i := 0; i < len(lineHours)/hw; i++ {
		forEachBit(lineHours[i*hw:(i+1)*hw], func(h int) { counts[h]++ })
	}
	for h, n := range counts {
		ser.Add(h, float64(n))
	}
	return ser
}

// Aliases returns aliases with any observed traffic, sorted.
func (s *Study) Aliases() []string {
	out := make([]string, 0, len(s.activeLines))
	for a := range s.activeLines {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// Hours returns the study length in hours.
func (s *Study) Hours() int { return s.hours }

// Visibility returns the visible share of an alias's identified servers
// per address family (Figure 6).
func (s *Study) Visibility(alias string) (v4Pct, v6Pct float64) {
	totals := s.idx.TotalPerAlias()[alias]
	var v4, v6 int
	for b := range s.visible[alias] {
		if b.Is4() || b.Is4In6() {
			v4++
		} else {
			v6++
		}
	}
	if totals[0] > 0 {
		v4Pct = 100 * float64(v4) / float64(totals[0])
	}
	if totals[1] > 0 {
		v6Pct = 100 * float64(v6) / float64(totals[1])
	}
	return v4Pct, v6Pct
}

// LineCount returns the distinct lines with traffic to alias, per family.
func (s *Study) LineCount(alias string) (v4, v6 int) {
	for k := range s.lineAliases {
		if k.alias != alias {
			continue
		}
		if k.line.Is4() || k.line.Is4In6() {
			v4++
		} else {
			v6++
		}
	}
	return v4, v6
}

// CertOnlyDecrease is Figure 7: the share of an alias's lines that
// become invisible when only TLS-certificate-discovered backends are
// considered.
func (s *Study) CertOnlyDecrease(alias string) (v4Pct, v6Pct float64) {
	var total4, total6, seen4, seen6 int
	for k := range s.lineAliases {
		if k.alias != alias {
			continue
		}
		v4 := k.line.Is4() || k.line.Is4In6()
		if v4 {
			total4++
		} else {
			total6++
		}
		if _, ok := s.lineCertSeen[k]; ok {
			if v4 {
				seen4++
			} else {
				seen6++
			}
		}
	}
	if total4 > 0 {
		v4Pct = 100 * float64(total4-seen4) / float64(total4)
	}
	if total6 > 0 {
		v6Pct = 100 * float64(total6-seen6) / float64(total6)
	}
	return v4Pct, v6Pct
}

// ActiveLines returns the hourly active-line series (Figure 8).
func (s *Study) ActiveLines(alias string) *analysis.Series {
	if ser, ok := s.activeLines[alias]; ok {
		return ser
	}
	return analysis.NewSeries(alias, s.hours)
}

// Downstream returns the hourly downstream volume series (Figure 9).
func (s *Study) Downstream(alias string) *analysis.Series {
	if ser, ok := s.downHour[alias]; ok {
		return ser
	}
	return analysis.NewSeries(alias, s.hours)
}

// Upstream returns the hourly upstream volume series.
func (s *Study) Upstream(alias string) *analysis.Series {
	if ser, ok := s.upHour[alias]; ok {
		return ser
	}
	return analysis.NewSeries(alias, s.hours)
}

// RatioSeries returns the hourly downstream/upstream ratio (Figure 10).
func (s *Study) RatioSeries(alias string) *analysis.Series {
	down, up := s.Downstream(alias), s.Upstream(alias)
	out := analysis.NewSeries(alias, s.hours)
	for h := 0; h < s.hours; h++ {
		if up.Values[h] > 0 {
			out.Add(h, down.Values[h]/up.Values[h])
		}
	}
	return out
}

// OverallRatio is the whole-week down/up ratio.
func (s *Study) OverallRatio(alias string) float64 {
	up := s.Upstream(alias).Total()
	if up == 0 {
		return 0
	}
	return s.Downstream(alias).Total() / up
}

// PortShare is one Figure 11 cell.
type PortShare struct {
	Port  proto.PortKey
	Share float64
}

// PortShares returns an alias's normalized port mix, descending.
func (s *Study) PortShares(alias string) []PortShare {
	vols := s.portVol[alias]
	total := 0.0
	for _, v := range vols {
		total += v
	}
	out := make([]PortShare, 0, len(vols))
	for p, v := range vols {
		share := 0.0
		if total > 0 {
			share = v / total
		}
		out = append(out, PortShare{Port: p, Share: share})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Share != out[j].Share {
			return out[i].Share > out[j].Share
		}
		return out[i].Port.String() < out[j].Port.String()
	})
	return out
}

// TopPorts returns the ports carrying the most total traffic.
func (s *Study) TopPorts(n int) []proto.PortKey {
	agg := map[proto.PortKey]float64{}
	for _, vols := range s.portVol {
		for p, v := range vols {
			agg[p] += v
		}
	}
	type pv struct {
		p proto.PortKey
		v float64
	}
	all := make([]pv, 0, len(agg))
	for p, v := range agg {
		all = append(all, pv{p, v})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].v != all[j].v {
			return all[i].v > all[j].v
		}
		return all[i].p.String() < all[j].p.String()
	})
	if n > len(all) {
		n = len(all)
	}
	out := make([]proto.PortKey, n)
	for i := 0; i < n; i++ {
		out[i] = all[i].p
	}
	return out
}

// DailyECDFs returns the per-line-day total volume distributions
// (Figure 12a): one sample per (line, day) with any traffic.
func (s *Study) DailyECDFs() (down, up *analysis.ECDF) {
	var d, u []float64
	for _, days := range s.lineDaily {
		for _, v := range days {
			if v[0] > 0 {
				d = append(d, v[0])
			}
			if v[1] > 0 {
				u = append(u, v[1])
			}
		}
	}
	return analysis.NewECDF(d), analysis.NewECDF(u)
}

// AliasDailyECDF returns the per-line-day downstream distribution for
// one alias (Figure 12b).
func (s *Study) AliasDailyECDF(alias string) *analysis.ECDF {
	var samples []float64
	for k, days := range s.lineAliasDaily {
		if k.alias != alias {
			continue
		}
		for _, v := range days {
			if v > 0 {
				samples = append(samples, v)
			}
		}
	}
	return analysis.NewECDF(samples)
}

// PortDailyECDF returns the per-line-day downstream distribution on one
// port (Figure 12c).
func (s *Study) PortDailyECDF(port proto.PortKey) *analysis.ECDF {
	var samples []float64
	for k, days := range s.linePortDaily {
		if k.port != port {
			continue
		}
		for _, v := range days {
			if v > 0 {
				samples = append(samples, v)
			}
		}
	}
	return analysis.NewECDF(samples)
}

// BackendVolumes returns the estimated exchanged volume per contacted
// backend address — the §3.4 traffic cross-check input ("we only
// identify 52 IPs that are active").
func (s *Study) BackendVolumes() map[netip.Addr]float64 {
	out := make(map[netip.Addr]float64, len(s.backendVol))
	for a, v := range s.backendVol {
		out[a] = v
	}
	return out
}

// ContinentCategory labels Figure 13's line buckets.
type ContinentCategory string

// Figure 13 line categories.
const (
	CatEUOnly    ContinentCategory = "EU-only"
	CatUSOnly    ContinentCategory = "US-only"
	CatEUAndUS   ContinentCategory = "EU+US"
	CatAsiaOther ContinentCategory = "Asia/Other"
)

// LineContinentShares buckets IoT lines by the continents of the
// backends they contact (Figure 13, left side).
func (s *Study) LineContinentShares() map[ContinentCategory]float64 {
	counts := map[ContinentCategory]float64{}
	const (
		eu = 1
		na = 2
	)
	for _, mask := range s.lineConts {
		switch {
		case mask == eu:
			counts[CatEUOnly]++
		case mask == na:
			counts[CatUSOnly]++
		case mask == eu|na:
			counts[CatEUAndUS]++
		default:
			counts[CatAsiaOther]++
		}
	}
	return analysis.Shares(counts)
}

// ServerContinentShares distributes the identified backends per
// continent (Figure 13, right side).
func (s *Study) ServerContinentShares() map[geo.Continent]float64 {
	counts := map[geo.Continent]float64{}
	for _, bi := range s.idx.info {
		counts[bi.cont]++
	}
	return analysis.Shares(counts)
}

// TrafficContinentShares distributes exchanged volume per server
// continent (Figure 14).
func (s *Study) TrafficContinentShares() map[geo.Continent]float64 {
	return analysis.Shares(s.contVol)
}
