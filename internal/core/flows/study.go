package flows

import (
	"math/bits"
	"net/netip"
	"slices"
	"sort"

	"iotmap/internal/analysis"
	"iotmap/internal/geo"
	"iotmap/internal/proto"
)

// Study is the finalized traffic analysis: a read-only view over the
// finalized collector's dense columns. Nothing is materialized into
// address- or name-keyed maps; every accessor resolves the alias or port
// it is asked about to its dense ID and answers from the columns in one
// pass. Nothing the figures print depends on line- or port-ID order
// (ECDFs sort their samples, shares and counts are order-free, volumes
// are exact integer-valued sums), so every figure renders
// byte-identically to the historical map-keyed implementation.
//
// A Study shares storage with the collector it came from (see
// Collector.Study) and keeps no lazy state: it is safe for any number of
// concurrent readers, and the series it returns (Downstream, Upstream,
// ActiveLines, the Focus fields) are shared and read-only.
type Study struct {
	idx   *BackendIndex
	days  int
	hours int
	aw    int

	// Per-line columns, by line ID (strides as in Collector).
	lineAddrs     []netip.Addr
	lineDaily     []float64
	lineConts     []uint8
	lineAliasBits []uint64
	lineCertBits  []uint64

	// (line, alias) and (line, port) daily slot arenas.
	laKeys  []laKey
	laDaily []float64
	lpKeys  []lpKey
	lpDaily []float64

	// Per-alias columns, by alias ID. activeLines is nil for an alias
	// without traffic.
	visible     [][]uint64
	activeLines []*analysis.Series
	downHour    []*analysis.Series
	upHour      []*analysis.Series
	portVol     [][]float64
	portSeen    [][]uint64
	// portKeys is the port ID → (transport, port) table.
	portKeys []proto.PortKey

	backendVol  []float64
	backendSeen []uint64

	FocusDownAll, FocusDownRegion, FocusDownEU    *analysis.Series
	FocusLinesAll, FocusLinesRegion, FocusLinesEU *analysis.Series
}

// Study finalizes the collector. The returned Study adopts the
// collector's aggregate columns by reference, the active-line series the
// fold keeps current among them; it copies and derives nothing, so its
// cost does not grow with the lines held. The collector must not be
// ingested into or merged afterwards: the same rule Merge documents for
// its donor, which beginRun, Merge and IngestBatch enforce with a
// panic. The fold-only tables (hour bitsets, slot indexes, line and
// port intern tables) are not retained and die with the collector.
// Study writes nothing to a collector already finalized, so the many
// holders of one the window lent (Window.Merged) may call it at once.
func (c *Collector) Study() *Study {
	c.idx.checkGen(c.gen)
	if !c.finalized {
		c.finalized = true
	}
	s := &Study{
		idx:           c.idx,
		days:          c.ds,
		hours:         c.hours,
		aw:            c.aw,
		lineAddrs:     c.lines.addrs,
		lineDaily:     c.lineDaily,
		lineConts:     c.lineConts,
		lineAliasBits: c.lineAliasBits,
		lineCertBits:  c.lineCertBits,
		laKeys:        c.laKeys,
		laDaily:       c.laDaily,
		lpKeys:        c.lpKeys,
		lpDaily:       c.lpDaily,
		visible:       c.visible,
		activeLines:   c.activeLines,
		downHour:      c.downHour,
		upHour:        c.upHour,
		portVol:       c.portVol,
		portSeen:      c.portSeen,
		portKeys:      c.ports.keys,
		backendVol:    c.backendVol,
		backendSeen:   c.backendSeen,
	}
	if c.focusAlias != "" {
		s.FocusDownAll = c.focusSeries(c.downHour, c.focusAlias+": All")
		s.FocusDownRegion = c.focusDownRegion
		s.FocusDownEU = c.focusDownEU
		s.FocusLinesAll = c.focusSeries(c.activeLines, c.focusAlias+": All lines")
		s.FocusLinesRegion = c.focusLinesRegion
		s.FocusLinesEU = c.focusLinesEU
	}
	return s
}

// focusSeries returns the focus alias's series in col under label,
// sharing its values, or a zero series when the alias has none.
func (c *Collector) focusSeries(col []*analysis.Series, label string) *analysis.Series {
	if a := c.focusAliasID; a >= 0 && col[a] != nil {
		return &analysis.Series{Label: label, Values: col[a].Values}
	}
	return analysis.NewSeries(label, c.hours)
}

// aliasID resolves an alias to its dense ID, -1 when the index has no
// such alias.
func (s *Study) aliasID(alias string) int {
	if a, ok := slices.BinarySearch(s.idx.aliasNames, alias); ok {
		return a
	}
	return -1
}

// Aliases returns aliases with any observed traffic, sorted.
func (s *Study) Aliases() []string {
	out := make([]string, 0, len(s.activeLines))
	for a, ser := range s.activeLines {
		if ser != nil {
			out = append(out, s.idx.aliasNames[a])
		}
	}
	return out
}

// Hours returns the study length in hours.
func (s *Study) Hours() int { return s.hours }

// Visibility returns the visible share of an alias's identified servers
// per address family (Figure 6).
func (s *Study) Visibility(alias string) (v4Pct, v6Pct float64) {
	a := s.aliasID(alias)
	if a < 0 {
		return 0, 0
	}
	var v4, all int
	for k, w := range s.visible[a] {
		v4 += bits.OnesCount64(w & s.idx.v4Mask[k])
		all += bits.OnesCount64(w)
	}
	totals := s.idx.aliasTotals[a]
	if totals[0] > 0 {
		v4Pct = 100 * float64(v4) / float64(totals[0])
	}
	if totals[1] > 0 {
		v6Pct = 100 * float64(all-v4) / float64(totals[1])
	}
	return v4Pct, v6Pct
}

// countLines counts, per address family, the lines whose bit for alias
// ID a is set in a stride-aw alias bit column.
func (s *Study) countLines(col []uint64, a int) (v4, v6 int) {
	if a < 0 {
		return 0, 0
	}
	for i, addr := range s.lineAddrs {
		if !hasBit(col[i*s.aw:], a) {
			continue
		}
		if addr.Is4() || addr.Is4In6() {
			v4++
		} else {
			v6++
		}
	}
	return v4, v6
}

// LineCount returns the distinct lines with traffic to alias, per family.
func (s *Study) LineCount(alias string) (v4, v6 int) {
	return s.countLines(s.lineAliasBits, s.aliasID(alias))
}

// CertOnlyDecrease is Figure 7: the share of an alias's lines that
// become invisible when only TLS-certificate-discovered backends are
// considered.
func (s *Study) CertOnlyDecrease(alias string) (v4Pct, v6Pct float64) {
	a := s.aliasID(alias)
	total4, total6 := s.countLines(s.lineAliasBits, a)
	seen4, seen6 := s.countLines(s.lineCertBits, a)
	if total4 > 0 {
		v4Pct = 100 * float64(total4-seen4) / float64(total4)
	}
	if total6 > 0 {
		v6Pct = 100 * float64(total6-seen6) / float64(total6)
	}
	return v4Pct, v6Pct
}

// seriesOr returns col[alias's ID], or an empty series when the alias
// is unknown or has no such traffic.
func (s *Study) seriesOr(col []*analysis.Series, alias string) *analysis.Series {
	if a := s.aliasID(alias); a >= 0 && col[a] != nil {
		return col[a]
	}
	return analysis.NewSeries(alias, s.hours)
}

// ActiveLines returns the hourly active-line series (Figure 8).
func (s *Study) ActiveLines(alias string) *analysis.Series {
	return s.seriesOr(s.activeLines, alias)
}

// Downstream returns the hourly downstream volume series (Figure 9).
func (s *Study) Downstream(alias string) *analysis.Series {
	return s.seriesOr(s.downHour, alias)
}

// Upstream returns the hourly upstream volume series.
func (s *Study) Upstream(alias string) *analysis.Series {
	return s.seriesOr(s.upHour, alias)
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

// sortPortShares orders by value descending, ties by the port's name.
func sortPortShares(out []PortShare) {
	sort.Slice(out, func(i, j int) bool {
		if out[i].Share != out[j].Share {
			return out[i].Share > out[j].Share
		}
		return out[i].Port.String() < out[j].Port.String()
	})
}

// PortShares returns an alias's normalized port mix, descending.
func (s *Study) PortShares(alias string) []PortShare {
	var vols []float64
	var seen []uint64
	if a := s.aliasID(alias); a >= 0 {
		vols, seen = s.portVol[a], s.portSeen[a]
	}
	total := 0.0
	for _, v := range vols {
		total += v
	}
	out := make([]PortShare, 0, popcount(seen))
	forEachBit(seen, func(pid int) {
		share := 0.0
		if total > 0 {
			share = vols[pid] / total
		}
		out = append(out, PortShare{Port: s.portKeys[pid], Share: share})
	})
	sortPortShares(out)
	return out
}

// TopPorts returns the ports carrying the most total traffic.
func (s *Study) TopPorts(n int) []proto.PortKey {
	// The port table is the key set: lineRun.add and Merge intern a port
	// and mark its presence together, so every port ID was seen under
	// some alias. Share holds the port's absolute volume here.
	all := make([]PortShare, len(s.portKeys))
	for pid, k := range s.portKeys {
		all[pid].Port = k
	}
	for _, vols := range s.portVol {
		for pid, v := range vols {
			all[pid].Share += v
		}
	}
	sortPortShares(all)
	if n > len(all) {
		n = len(all)
	}
	out := make([]proto.PortKey, n)
	for i := range out {
		out[i] = all[i].Port
	}
	return out
}

// positives appends the values above zero to dst.
func positives(dst, vals []float64) []float64 {
	for _, v := range vals {
		if v > 0 {
			dst = append(dst, v)
		}
	}
	return dst
}

// DailyECDFs returns the per-line-day total volume distributions
// (Figure 12a): one sample per (line, day) with any traffic.
func (s *Study) DailyECDFs() (down, up *analysis.ECDF) {
	var d, u []float64
	for i := 0; i+1 < len(s.lineDaily); i += 2 {
		if v := s.lineDaily[i]; v > 0 {
			d = append(d, v)
		}
		if v := s.lineDaily[i+1]; v > 0 {
			u = append(u, v)
		}
	}
	return analysis.NewECDF(d), analysis.NewECDF(u)
}

// AliasDailyECDF returns the per-line-day downstream distribution for
// one alias (Figure 12b).
func (s *Study) AliasDailyECDF(alias string) *analysis.ECDF {
	var samples []float64
	a := int32(s.aliasID(alias))
	for slot, k := range s.laKeys {
		if k.alias == a {
			samples = positives(samples, s.laDaily[slot*s.days:(slot+1)*s.days])
		}
	}
	return analysis.NewECDF(samples)
}

// PortDailyECDF returns the per-line-day downstream distribution on one
// port (Figure 12c).
func (s *Study) PortDailyECDF(port proto.PortKey) *analysis.ECDF {
	var samples []float64
	pid := int32(slices.Index(s.portKeys, port)) // -1: never seen
	for slot, k := range s.lpKeys {
		if k.port == pid {
			samples = positives(samples, s.lpDaily[slot*s.days:(slot+1)*s.days])
		}
	}
	return analysis.NewECDF(samples)
}

// BackendVolumes returns the estimated exchanged volume per contacted
// backend address — the §3.4 traffic cross-check input ("we only
// identify 52 IPs that are active").
func (s *Study) BackendVolumes() map[netip.Addr]float64 {
	out := make(map[netip.Addr]float64, popcount(s.backendSeen))
	forEachBit(s.backendSeen, func(b int) { out[s.idx.addrs[b]] = s.backendVol[b] })
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

// continentVolumes regroups the per-backend volumes by server continent:
// exact, because volumes are integer-valued (see Collector.Merge), and a
// zero-byte backend still creates its continent's key.
func (s *Study) continentVolumes() map[geo.Continent]float64 {
	out := map[geo.Continent]float64{}
	forEachBit(s.backendSeen, func(b int) { out[s.idx.infos[b].cont] += s.backendVol[b] })
	return out
}

// TrafficContinentShares distributes exchanged volume per server
// continent (Figure 14).
func (s *Study) TrafficContinentShares() map[geo.Continent]float64 {
	return analysis.Shares(s.continentVolumes())
}
