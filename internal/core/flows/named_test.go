package flows

import (
	"net/netip"
	"sort"

	"iotmap/internal/analysis"
	"iotmap/internal/geo"
	"iotmap/internal/proto"
)

// The historical map-keyed result shape, kept as the tests' canonical
// form now that Study is a view over dense columns. Two studies hold
// equal aggregates exactly when their named() forms are deeply equal,
// whatever line or port ID order their collectors happened to assign;
// refCollector fills the same shape from its maps, and the accessors
// below are the historical map-scanning implementations, kept verbatim
// as the oracle for TestStudyAccessorsMatchReference.

type lineAliasKey struct {
	line  netip.Addr
	alias string
}

type linePortKey struct {
	line netip.Addr
	port proto.PortKey
}

type namedStudy struct {
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

// named materializes a Study's columns in the canonical form.
func named(st *Study) *namedStudy {
	idx := st.idx
	s := &namedStudy{
		idx:            idx,
		days:           st.days,
		hours:          st.hours,
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
		contVol:        st.continentVolumes(),
		backendVol:     st.BackendVolumes(),

		FocusDownAll: st.FocusDownAll, FocusDownRegion: st.FocusDownRegion, FocusDownEU: st.FocusDownEU,
		FocusLinesAll: st.FocusLinesAll, FocusLinesRegion: st.FocusLinesRegion, FocusLinesEU: st.FocusLinesEU,
	}
	for a, name := range idx.aliasNames {
		if vs := st.visible[a]; vs != nil {
			set := map[netip.Addr]struct{}{}
			forEachBit(vs, func(b int) { set[idx.addrs[b]] = struct{}{} })
			s.visible[name] = set
		}
		if ser := st.activeLines[a]; ser != nil {
			s.activeLines[name] = ser
		}
		if ser := st.downHour[a]; ser != nil {
			s.downHour[name] = ser
		}
		if ser := st.upHour[a]; ser != nil {
			s.upHour[name] = ser
		}
		if pv := st.portVol[a]; pv != nil {
			m := map[proto.PortKey]float64{}
			forEachBit(st.portSeen[a], func(pid int) { m[st.portKeys[pid]] = pv[pid] })
			s.portVol[name] = m
		}
	}
	for i, addr := range st.lineAddrs {
		days := make([][2]float64, st.days)
		for d := range days {
			days[d] = [2]float64{st.lineDaily[(i*st.days+d)*2], st.lineDaily[(i*st.days+d)*2+1]}
		}
		s.lineDaily[addr] = days
		s.lineConts[addr] = st.lineConts[i]
		forEachBit(st.lineAliasBits[i*st.aw:(i+1)*st.aw], func(a int) {
			s.lineAliases[lineAliasKey{line: addr, alias: idx.aliasNames[a]}] = struct{}{}
		})
		forEachBit(st.lineCertBits[i*st.aw:(i+1)*st.aw], func(a int) {
			s.lineCertSeen[lineAliasKey{line: addr, alias: idx.aliasNames[a]}] = struct{}{}
		})
	}
	for slot, k := range st.laKeys {
		key := lineAliasKey{line: st.lineAddrs[k.line], alias: idx.aliasNames[k.alias]}
		s.lineAliasDaily[key] = st.laDaily[slot*st.days : (slot+1)*st.days]
	}
	for slot, k := range st.lpKeys {
		key := linePortKey{line: st.lineAddrs[k.line], port: st.portKeys[k.port]}
		s.linePortDaily[key] = st.lpDaily[slot*st.days : (slot+1)*st.days]
	}
	return s
}

// contactSets materializes the per-line contacted-backend sets in the
// historical map-keyed shape (tests compare counters through it).
func (c *ContactCounter) contactSets() map[netip.Addr]map[netip.Addr]struct{} {
	c.idx.checkGen(c.gen)
	out := make(map[netip.Addr]map[netip.Addr]struct{}, len(c.lines.addrs))
	for i, a := range c.lines.addrs {
		set := map[netip.Addr]struct{}{}
		forEachBit(c.lineBits(i), func(b int) { set[c.idx.addrs[b]] = struct{}{} })
		out[a] = set
	}
	return out
}

// --- historical accessors (the oracle) -----------------------------------

func (s *namedStudy) Aliases() []string {
	out := make([]string, 0, len(s.activeLines))
	for a := range s.activeLines {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

func (s *namedStudy) Visibility(alias string) (v4Pct, v6Pct float64) {
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

func (s *namedStudy) LineCount(alias string) (v4, v6 int) {
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

func (s *namedStudy) CertOnlyDecrease(alias string) (v4Pct, v6Pct float64) {
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

func (s *namedStudy) series(m map[string]*analysis.Series, alias string) *analysis.Series {
	if ser, ok := m[alias]; ok {
		return ser
	}
	return analysis.NewSeries(alias, s.hours)
}

func (s *namedStudy) OverallRatio(alias string) float64 {
	up := s.series(s.upHour, alias).Total()
	if up == 0 {
		return 0
	}
	return s.series(s.downHour, alias).Total() / up
}

func (s *namedStudy) PortShares(alias string) []PortShare {
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

func (s *namedStudy) TopPorts(n int) []proto.PortKey {
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

func (s *namedStudy) DailyECDFs() (down, up *analysis.ECDF) {
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

func (s *namedStudy) AliasDailyECDF(alias string) *analysis.ECDF {
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

func (s *namedStudy) PortDailyECDF(port proto.PortKey) *analysis.ECDF {
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

func (s *namedStudy) LineContinentShares() map[ContinentCategory]float64 {
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

func (s *namedStudy) ServerContinentShares() map[geo.Continent]float64 {
	counts := map[geo.Continent]float64{}
	for _, bi := range s.idx.info {
		counts[bi.cont]++
	}
	return analysis.Shares(counts)
}

func (s *namedStudy) TrafficContinentShares() map[geo.Continent]float64 {
	return analysis.Shares(s.contVol)
}
