package flows

import (
	"math/rand"
	"net/netip"
	"reflect"
	"testing"
	"time"

	"iotmap/internal/analysis"
	"iotmap/internal/geo"
	"iotmap/internal/isp"
	"iotmap/internal/netflow"
	"iotmap/internal/proto"
)

// The dense-ID ContactCounter and Collector must be byte-identical to a
// straightforward map-keyed implementation on ANY record stream — not
// just the simulator's. refCounter/refCollector below are that
// reference: verbatim re-implementations of the historical map-keyed
// aggregation (address-keyed nested maps, Dst-first classification,
// integer-nanosecond hour bucketing). The streams they are checked on
// are adversarial: IPv6 and 4-in-6 endpoints, line addresses across
// multiple vantage /8 plans, plan-shaped addresses with out-of-range
// indices (forcing the map fallback), records before/after the study
// window, zero-byte records, and degenerate backend↔backend flows.

type refInfo struct {
	alias     string
	cont      geo.Continent
	region    string
	certFound bool
}

// refSide is the historical Dst-first endpoint classification.
func refSide(infos map[netip.Addr]refInfo, r netflow.Record) (line, backend netip.Addr, bi refInfo, ok bool) {
	if hit, found := infos[r.Dst]; found {
		return r.Src, r.Dst, hit, true
	}
	if hit, found := infos[r.Src]; found {
		return r.Dst, r.Src, hit, true
	}
	return line, backend, bi, false
}

type refCounter struct {
	infos    map[netip.Addr]refInfo
	contacts map[netip.Addr]map[netip.Addr]struct{}
}

func (c *refCounter) ingest(r netflow.Record) {
	line, backend, _, ok := refSide(c.infos, r)
	if !ok {
		return
	}
	set, ok := c.contacts[line]
	if !ok {
		set = map[netip.Addr]struct{}{}
		c.contacts[line] = set
	}
	set[backend] = struct{}{}
}

// The record references the sharded and wire pipelines are compared
// against. The product turns records into rows once, in
// WireTables.AppendRecord; these fold one record straight into a
// ContactCounter or Collector, the sequential two-pass drive.

// countRecord counts r's contact into c.
func countRecord(c *ContactCounter, r netflow.Record) {
	line, backendID, _, ok := c.idx.lineSide(r)
	if !ok {
		return
	}
	id := c.lineID(line)
	c.setContact(int(id), backendID)
}

// ingestRecord folds r into c as a one-row run unless its line is in
// skip (a prior countRecord pass's scanners) or it falls outside the
// study hours.
func ingestRecord(c *Collector, r netflow.Record, skip map[netip.Addr]struct{}) {
	foldRecords(c, []netflow.Record{r}, skip)
}

// foldRecords folds recs into c through the line-run kernel, one run
// per stretch of consecutive records on one line, dropping the records
// ingestRecord drops.
func foldRecords(c *Collector, recs []netflow.Record, skip map[netip.Addr]struct{}) {
	var run lineRun
	var cur netip.Addr
	open := false
	for _, r := range recs {
		lineAddr, backendID, down, ok := c.idx.lineSide(r)
		if !ok {
			continue
		}
		if _, s := skip[lineAddr]; s {
			continue
		}
		// Integer nanosecond division, and pre-study records rejected
		// before dividing: truncation toward zero would bucket the
		// sub-hour before days[0] into hour 0.
		sinceStart := r.Start.Sub(c.days[0])
		if sinceStart < 0 {
			continue
		}
		hour := int(sinceStart / time.Hour)
		if hour >= c.hours {
			continue
		}
		// The backend-side port identifies the service.
		port := proto.PortKey{Port: r.SrcPort}
		if !down {
			port = proto.PortKey{Port: r.DstPort}
		}
		if r.Proto == netflow.ProtoUDP {
			port.Transport = proto.UDP
		}
		if !open || lineAddr != cur {
			if open {
				run.end()
			}
			run, cur, open = c.beginRun(int(c.lineID(lineAddr))), lineAddr, true
		}
		run.add(backendID, down, hour, port, float64(r.Bytes)*c.rate)
	}
	if open {
		run.end()
	}
}

// simulate feeds net's week into sink as records, one worker.
func simulate(net *isp.Network, sink func(netflow.Record)) {
	net.SimulateLines(1, func(int) func(netflow.Record) { return sink }, func(int, *isp.Line) {})
}

func (c *refCounter) scanners(threshold int) map[netip.Addr]struct{} {
	out := map[netip.Addr]struct{}{}
	for line, set := range c.contacts {
		if len(set) > threshold {
			out[line] = struct{}{}
		}
	}
	return out
}

// curve is the historical O(thresholds × lines × set-size) sweep.
func (c *refCounter) curve(thresholds []int) []CurvePoint {
	totalV4 := 0
	for addr := range c.infos {
		if addr.Is4() || addr.Is4In6() {
			totalV4++
		}
	}
	out := make([]CurvePoint, 0, len(thresholds))
	for _, t := range thresholds {
		visible := map[netip.Addr]struct{}{}
		scanners := 0
		for _, set := range c.contacts {
			if len(set) > t {
				scanners++
				continue
			}
			for b := range set {
				if b.Is4() || b.Is4In6() {
					visible[b] = struct{}{}
				}
			}
		}
		pct := 0.0
		if totalV4 > 0 {
			pct = 100 * float64(len(visible)) / float64(totalV4)
		}
		out = append(out, CurvePoint{Threshold: t, Scanners: scanners, CoveragePct: pct})
	}
	return out
}

type refCollector struct {
	infos map[netip.Addr]refInfo
	days  []time.Time
	hours int
	rate  float64

	focusAlias  string
	focusRegion string

	visible        map[string]map[netip.Addr]struct{}
	linesHour      map[string][]map[netip.Addr]struct{}
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

	focusDownAll, focusDownRegion, focusDownEU    *analysis.Series
	focusLinesAll, focusLinesRegion, focusLinesEU []map[netip.Addr]struct{}
}

func refHourSets(hours int) []map[netip.Addr]struct{} {
	out := make([]map[netip.Addr]struct{}, hours)
	for i := range out {
		out[i] = map[netip.Addr]struct{}{}
	}
	return out
}

func newRefCollector(infos map[netip.Addr]refInfo, days []time.Time, opts Options) *refCollector {
	hours := len(days) * 24
	c := &refCollector{
		infos:          infos,
		days:           days,
		hours:          hours,
		rate:           float64(opts.SamplingRate),
		focusAlias:     opts.FocusAlias,
		focusRegion:    opts.FocusRegion,
		visible:        map[string]map[netip.Addr]struct{}{},
		linesHour:      map[string][]map[netip.Addr]struct{}{},
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
	if c.rate <= 0 {
		c.rate = 1
	}
	if c.focusAlias != "" {
		c.focusDownAll = analysis.NewSeries(c.focusAlias+": All", hours)
		c.focusDownRegion = analysis.NewSeries(c.focusAlias+": "+c.focusRegion, hours)
		c.focusDownEU = analysis.NewSeries(c.focusAlias+": EU", hours)
		c.focusLinesAll = refHourSets(hours)
		c.focusLinesRegion = refHourSets(hours)
		c.focusLinesEU = refHourSets(hours)
	}
	return c
}

func (c *refCollector) ingest(r netflow.Record) {
	line, backend, bi, ok := refSide(c.infos, r)
	if !ok {
		return
	}
	downstream := backend == r.Src
	alias := bi.alias
	sinceStart := r.Start.Sub(c.days[0])
	if sinceStart < 0 {
		return
	}
	hour := int(sinceStart / time.Hour)
	if hour >= c.hours {
		return
	}
	day := hour / 24
	bytes := float64(r.Bytes) * c.rate

	vs, ok := c.visible[alias]
	if !ok {
		vs = map[netip.Addr]struct{}{}
		c.visible[alias] = vs
	}
	vs[backend] = struct{}{}

	lh, ok := c.linesHour[alias]
	if !ok {
		lh = refHourSets(c.hours)
		c.linesHour[alias] = lh
	}
	lh[hour][line] = struct{}{}

	if downstream {
		s, ok := c.downHour[alias]
		if !ok {
			s = analysis.NewSeries(alias, c.hours)
			c.downHour[alias] = s
		}
		s.Add(hour, bytes)
	} else {
		s, ok := c.upHour[alias]
		if !ok {
			s = analysis.NewSeries(alias, c.hours)
			c.upHour[alias] = s
		}
		s.Add(hour, bytes)
	}

	port := proto.PortKey{Port: r.SrcPort}
	if !downstream {
		port = proto.PortKey{Port: r.DstPort}
	}
	if r.Proto == netflow.ProtoUDP {
		port.Transport = proto.UDP
	}
	pv, ok := c.portVol[alias]
	if !ok {
		pv = map[proto.PortKey]float64{}
		c.portVol[alias] = pv
	}
	pv[port] += bytes

	ld, ok := c.lineDaily[line]
	if !ok {
		ld = make([][2]float64, len(c.days))
		c.lineDaily[line] = ld
	}
	if downstream {
		ld[day][0] += bytes
	} else {
		ld[day][1] += bytes
	}
	lak := lineAliasKey{line: line, alias: alias}
	c.lineAliases[lak] = struct{}{}
	if bi.certFound {
		c.lineCertSeen[lak] = struct{}{}
	}
	// Every (line, alias) pair with a row has a daily entry, which only
	// downstream bytes fill.
	lad, ok := c.lineAliasDaily[lak]
	if !ok {
		lad = make([]float64, len(c.days))
		c.lineAliasDaily[lak] = lad
	}
	if downstream {
		lad[day] += bytes
		lpk := linePortKey{line: line, port: port}
		lpd, ok := c.linePortDaily[lpk]
		if !ok {
			lpd = make([]float64, len(c.days))
			c.linePortDaily[lpk] = lpd
		}
		lpd[day] += bytes
	}

	c.backendVol[backend] += bytes

	cont := bi.cont
	c.lineConts[line] |= contBit(cont)
	c.contVol[cont] += bytes

	if c.focusAlias != "" && alias == c.focusAlias {
		if downstream {
			c.focusDownAll.Add(hour, bytes)
		}
		c.focusLinesAll[hour][line] = struct{}{}
		switch {
		case bi.region == c.focusRegion:
			if downstream {
				c.focusDownRegion.Add(hour, bytes)
			}
			c.focusLinesRegion[hour][line] = struct{}{}
		case cont == geo.Europe:
			if downstream {
				c.focusDownEU.Add(hour, bytes)
			}
			c.focusLinesEU[hour][line] = struct{}{}
		}
	}
}

func refSetsToSeries(label string, sets []map[netip.Addr]struct{}) *analysis.Series {
	ser := analysis.NewSeries(label, len(sets))
	for h, set := range sets {
		ser.Add(h, float64(len(set)))
	}
	return ser
}

// study materializes the reference aggregates in the canonical form the
// dense collector's Study must reproduce exactly.
func (c *refCollector) study(idx *BackendIndex) *namedStudy {
	s := &namedStudy{
		idx:            idx,
		days:           len(c.days),
		hours:          c.hours,
		visible:        c.visible,
		activeLines:    map[string]*analysis.Series{},
		downHour:       c.downHour,
		upHour:         c.upHour,
		portVol:        c.portVol,
		lineDaily:      c.lineDaily,
		lineAliasDaily: c.lineAliasDaily,
		linePortDaily:  c.linePortDaily,
		lineAliases:    c.lineAliases,
		lineCertSeen:   c.lineCertSeen,
		lineConts:      c.lineConts,
		contVol:        c.contVol,
		backendVol:     c.backendVol,
	}
	for alias, sets := range c.linesHour {
		ser := analysis.NewSeries(alias, c.hours)
		for h, set := range sets {
			ser.Add(h, float64(len(set)))
		}
		s.activeLines[alias] = ser
	}
	if c.focusAlias != "" {
		s.FocusDownAll = c.focusDownAll
		s.FocusDownRegion = c.focusDownRegion
		s.FocusDownEU = c.focusDownEU
		s.FocusLinesAll = refSetsToSeries(c.focusAlias+": All lines", c.focusLinesAll)
		s.FocusLinesRegion = refSetsToSeries(c.focusAlias+": region lines", c.focusLinesRegion)
		s.FocusLinesEU = refSetsToSeries(c.focusAlias+": EU lines", c.focusLinesEU)
	}
	return s
}

// --- randomized fixtures -------------------------------------------------

type denseFixture struct {
	idx   *BackendIndex
	infos map[netip.Addr]refInfo
	days  []time.Time
	recs  []netflow.Record
	opts  Options
}

// buildDenseFixture generates a randomized backend index and record
// stream exercising every interning path.
func buildDenseFixture(seed int64) denseFixture {
	rng := rand.New(rand.NewSource(seed))
	aliases := []string{"T1", "T2", "D3", "O1"}
	conts := []geo.Continent{geo.Europe, geo.NorthAmerica, geo.Asia, geo.SouthAmerica}
	regions := []string{"us-east-1", "eu-central-1", "ap-south-1"}

	idx := NewBackendIndex()
	infos := map[netip.Addr]refInfo{}
	var backends []netip.Addr
	addBackend := func(a netip.Addr) {
		bi := refInfo{
			alias:     aliases[rng.Intn(len(aliases))],
			cont:      conts[rng.Intn(len(conts))],
			region:    regions[rng.Intn(len(regions))],
			certFound: rng.Intn(2) == 0,
		}
		idx.Add(a, bi.alias, bi.cont, bi.region, bi.certFound)
		infos[a] = bi
		backends = append(backends, a)
	}
	for i := 0; i < 40; i++ {
		addBackend(netip.AddrFrom4([4]byte{byte(16 + rng.Intn(60)), byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))}))
	}
	for i := 0; i < 12; i++ {
		var b [16]byte
		b[0], b[1] = 0x20, 0x01
		b[15] = byte(1 + rng.Intn(250))
		b[7] = byte(rng.Intn(256))
		addBackend(netip.AddrFrom16(b))
	}
	// A backend inside the line plan's /8 range: backend classification
	// must win over the plan (Dst-first lineSide probes the index first).
	addBackend(netip.AddrFrom4([4]byte{97, 1, 2, 3}))
	// A 4-in-6 backend (counts as v4 in the curve denominator).
	addBackend(netip.AddrFrom16([16]byte{10: 0xff, 11: 0xff, 12: 44, 13: 3, 14: 2, 15: 1}))

	// Line address pool: plan v4/v6 across vantages, a plan-shaped slot
	// beyond planTabCap (map fallback), and assorted non-plan addresses.
	var lines []netip.Addr
	for _, v := range []int{0, 1, 63} {
		for i := 0; i < 10; i++ {
			lines = append(lines, isp.LineV4Addr(v, rng.Intn(4000)))
			lines = append(lines, isp.LineV6Addr(v, rng.Intn(4000)))
		}
	}
	lines = append(lines,
		isp.LineV4Addr(0, 1<<24-1), // slot ≥ planTabCap → map fallback
		netip.MustParseAddr("10.7.8.9"),
		netip.MustParseAddr("fd00::1234"),
		netip.AddrFrom16([16]byte{10: 0xff, 11: 0xff, 12: 10, 13: 9, 14: 8, 15: 7}), // 4-in-6 line
	)

	days := make([]time.Time, 5)
	start := time.Date(2022, 2, 28, 0, 0, 0, 0, time.UTC)
	for i := range days {
		days[i] = start.AddDate(0, 0, i)
	}
	hours := len(days) * 24

	recs := make([]netflow.Record, 0, 3000)
	for i := 0; i < 3000; i++ {
		line := lines[rng.Intn(len(lines))]
		backend := backends[rng.Intn(len(backends))]
		// Offsets range past both window edges; a few land exactly on
		// bucket boundaries.
		off := time.Duration(rng.Intn((hours+5)*int(time.Hour))) - 2*time.Hour
		if rng.Intn(20) == 0 {
			off = off.Truncate(time.Hour)
		}
		r := netflow.Record{
			Src: backend, Dst: line,
			SrcPort: uint16(rng.Intn(5) + 440), DstPort: uint16(40000 + rng.Intn(1000)),
			Bytes:   uint64(rng.Intn(1_000_000)),
			Packets: uint64(rng.Intn(500)),
			Start:   days[0].Add(off),
		}
		if rng.Intn(8) == 0 {
			r.Bytes = 0
		}
		if rng.Intn(2) == 0 {
			r.Src, r.Dst = r.Dst, r.Src
			r.SrcPort, r.DstPort = r.DstPort, r.SrcPort
		}
		if rng.Intn(3) == 0 {
			r.Proto = netflow.ProtoUDP
		} else {
			r.Proto = netflow.ProtoTCP
		}
		switch rng.Intn(25) {
		case 0: // degenerate: both endpoints are backends
			r.Src = backends[rng.Intn(len(backends))]
		case 1: // neither endpoint indexed
			r.Src, r.Dst = line, netip.AddrFrom4([4]byte{192, 168, 0, byte(rng.Intn(256))})
		}
		recs = append(recs, r)
	}
	return denseFixture{
		idx:   idx,
		infos: infos,
		days:  days,
		recs:  recs,
		opts: Options{
			SamplingRate: 100,
			FocusAlias:   "T1",
			FocusRegion:  "us-east-1",
		},
	}
}

// TestDenseCounterMatchesMapReference: the bitset ContactCounter equals
// the map-keyed reference on a randomized stream — contact sets,
// scanner sweeps, and the full Figure 5 curve (which also pins the
// incremental sweep against the historical per-threshold rescan).
func TestDenseCounterMatchesMapReference(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		f := buildDenseFixture(seed)
		cc := NewContactCounter(f.idx)
		ref := &refCounter{infos: f.infos, contacts: map[netip.Addr]map[netip.Addr]struct{}{}}
		for _, r := range f.recs {
			countRecord(cc, r)
			ref.ingest(r)
		}
		if !reflect.DeepEqual(cc.contactSets(), ref.contacts) {
			t.Fatalf("seed %d: contact sets diverge from the map reference", seed)
		}
		for _, threshold := range []int{-1, 0, 1, 3, 10, 1000} {
			if !reflect.DeepEqual(cc.Scanners(threshold), ref.scanners(threshold)) {
				t.Fatalf("seed %d: scanner set at threshold %d diverges", seed, threshold)
			}
		}
		thresholds := []int{10, 3, 3, 0, 25, 1}
		if got, want := cc.Curve(thresholds), ref.curve(thresholds); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: curve diverges:\n got  %+v\n want %+v", seed, got, want)
		}
	}
}

// TestDenseCollectorMatchesMapReference: the dense collector's finalized
// Study is deeply equal to the map-keyed reference's on a randomized
// stream — every aggregate, including focus series, zero-byte presence,
// and out-of-window rejection.
func TestDenseCollectorMatchesMapReference(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		f := buildDenseFixture(seed)
		col := NewCollector(f.idx, f.days, f.opts)
		ref := newRefCollector(f.infos, f.days, f.opts)
		for _, r := range f.recs {
			ingestRecord(col, r, nil)
			ref.ingest(r)
		}
		if !reflect.DeepEqual(named(col.Study()), ref.study(f.idx)) {
			t.Fatalf("seed %d: dense study diverges from the map reference", seed)
		}
	}
}

// TestLineRunFoldMatchesRowFold: the line-run kernel folds runs of
// one line's rows exactly as one-row runs do, and both equal the
// map-keyed reference, on shapes aimed at the state a run carries:
//   - one line's rows split over non-adjacent runs;
//   - fully interleaved lines, every run one row long;
//   - runs whose last row brings a new alias, a new port, or a (line,
//     port) slot on a line past the port's line table;
//   - focus-alias rows in the focus region, in Europe and elsewhere;
//   - cert and non-cert backends, of one alias and of two, on one line.
func TestLineRunFoldMatchesRowFold(t *testing.T) {
	type backend struct {
		alias  string
		cont   geo.Continent
		region string
		cert   bool
	}
	backends := []backend{
		{"T1", geo.NorthAmerica, "us-east-1", true}, // focus region
		{"T1", geo.Europe, "eu-central-1", false},   // focus EU
		{"T1", geo.Asia, "ap-south-1", true},        // focus elsewhere
		{"T2", geo.Europe, "eu-central-1", true},
		{"D3", geo.NorthAmerica, "us-east-1", false},
		{"O1", geo.Asia, "ap-south-1", true},
		{"O1", geo.SouthAmerica, "sa-east-1", false},
	}
	idx := NewBackendIndex()
	infos := map[netip.Addr]refInfo{}
	addrs := make([]netip.Addr, len(backends))
	for i, b := range backends {
		addrs[i] = netip.AddrFrom4([4]byte{16, 0, 0, byte(1 + i)})
		idx.Add(addrs[i], b.alias, b.cont, b.region, b.cert)
		infos[addrs[i]] = refInfo{alias: b.alias, cont: b.cont, region: b.region, certFound: b.cert}
	}
	lines := make([]netip.Addr, 6)
	for i := range lines {
		lines[i] = isp.LineV4Addr(0, 10+i)
	}
	days := make([]time.Time, 3)
	for i := range days {
		days[i] = time.Date(2022, 2, 28, 0, 0, 0, 0, time.UTC).AddDate(0, 0, i)
	}
	opts := Options{SamplingRate: 100, FocusAlias: "T1", FocusRegion: "us-east-1"}

	// row is one record: line, backend, direction, hour, backend port.
	var recs []netflow.Record
	row := func(l, b int, down bool, hour int, port uint16) {
		r := netflow.Record{
			Src: addrs[b], Dst: lines[l], SrcPort: port, DstPort: 40000 + uint16(hour),
			Bytes: uint64(1000 + 37*len(recs)), Packets: 1, Proto: netflow.ProtoTCP,
			Start: days[0].Add(time.Duration(hour)*time.Hour + time.Minute),
		}
		if port == 53 {
			r.Proto = netflow.ProtoUDP
		}
		if !down {
			r.Src, r.Dst, r.SrcPort, r.DstPort = r.Dst, r.Src, r.DstPort, r.SrcPort
		}
		recs = append(recs, r)
	}
	// Line 0 in three runs, with lines 1 and 2 between them.
	row(0, 3, true, 1, 443)
	row(0, 3, false, 1, 443)
	row(0, 4, true, 2, 443)
	row(1, 3, true, 2, 443)
	row(0, 3, true, 30, 443)
	row(0, 4, true, 31, 8883)
	row(2, 4, true, 5, 443)
	row(0, 3, true, 60, 443)
	// Lines 1, 2 and 3 fully interleaved.
	for h := 3; h < 9; h++ {
		for l := 1; l <= 3; l++ {
			row(l, (l+h)%5, h%2 == 0, h, 443)
		}
	}
	// Runs whose last row is new to the collector: alias O1 with port
	// 53/udp, a first O1 row on line 4, port 8883 on line 5 (past that
	// port's line table), and a new (line, alias) slot.
	row(4, 3, true, 10, 443)
	row(4, 3, true, 11, 443)
	row(4, 5, true, 12, 53)
	row(3, 3, false, 13, 443)
	row(3, 6, true, 13, 443)
	row(5, 4, false, 14, 443)
	row(5, 4, true, 15, 8883)
	row(2, 0, false, 16, 443)
	row(2, 0, true, 16, 443)
	// Focus rows: region, Europe and elsewhere, both directions, on one
	// line, beside cert and non-cert backends of one alias (T1) and of
	// two (T2, D3).
	for h := 40; h < 44; h++ {
		for b := 0; b < 5; b++ {
			row(5, b, true, h, 443)
			row(5, b, false, h, 443)
		}
	}

	ref := newRefCollector(infos, days, opts)
	rows := NewCollector(idx, days, opts)
	for _, r := range recs {
		ref.ingest(r)
		ingestRecord(rows, r, nil)
	}
	runs := NewCollector(idx, days, opts)
	foldRecords(runs, recs, nil)
	want := ref.study(idx)
	if got := named(rows.Study()); !reflect.DeepEqual(got, want) {
		t.Fatal("one-row runs diverge from the map reference")
	}
	if got := named(runs.Study()); !reflect.DeepEqual(got, want) {
		t.Fatal("line runs diverge from the map reference")
	}
}

// TestContinentVolumesDerivedFromBackends: Study() regroups per-backend
// volumes into Figure 14's per-continent volumes instead of summing per
// record. The result must equal the per-record sum exactly, and a
// continent reached only by a zero-byte record still gets its key.
func TestContinentVolumesDerivedFromBackends(t *testing.T) {
	idx := NewBackendIndex()
	backends := map[geo.Continent][]netip.Addr{
		geo.Europe:       {netipMust("198.51.100.1"), netipMust("198.51.100.2")},
		geo.NorthAmerica: {netipMust("198.51.100.3")},
		geo.Africa:       {netipMust("198.51.100.4")},
		geo.Oceania:      {netipMust("198.51.100.5")}, // never contacted
	}
	for cont, addrs := range backends {
		for _, a := range addrs {
			idx.Add(a, "T1", cont, "r", false)
		}
	}
	days := []time.Time{time.Date(2022, 2, 28, 0, 0, 0, 0, time.UTC)}
	col := NewCollector(idx, days, Options{SamplingRate: 100})
	want := map[geo.Continent]float64{}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 500; i++ {
		cont := []geo.Continent{geo.Europe, geo.NorthAmerica, geo.Africa}[rng.Intn(3)]
		bytes := uint64(rng.Intn(1 << 20))
		if cont == geo.Africa {
			bytes = 0
		}
		ingestRecord(col, netflow.Record{
			Src: backends[cont][rng.Intn(len(backends[cont]))], Dst: isp.LineV4Addr(0, rng.Intn(50)),
			SrcPort: 443, DstPort: 40000, Bytes: bytes, Start: days[0].Add(time.Duration(rng.Intn(24)) * time.Hour),
		}, nil)
		want[cont] += float64(bytes) * 100
	}
	if got := col.Study().continentVolumes(); !reflect.DeepEqual(got, want) {
		t.Errorf("derived continent volumes %v, per-record sum %v", got, want)
	}
}

// TestIndexRebuildInvalidatesAggregates: Adding to a BackendIndex
// after an aggregate was built reassigns the dense ID space; producing
// results from the stale aggregate must panic loudly instead of
// returning silently corrupt figures.
func TestIndexRebuildInvalidatesAggregates(t *testing.T) {
	f := buildDenseFixture(11)
	cc := NewContactCounter(f.idx)
	col := NewCollector(f.idx, f.days, f.opts)
	for _, r := range f.recs[:100] {
		countRecord(cc, r)
		ingestRecord(col, r, nil)
	}
	// Invalidate: a late Add followed by anything that rebuilds.
	f.idx.Add(netip.MustParseAddr("16.0.0.99"), "T9", geo.Asia, "ap-south-1", false)
	f.idx.Build()
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s on a stale aggregate did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("Scanners", func() { cc.Scanners(0) })
	mustPanic("Curve", func() { cc.Curve([]int{1}) })
	mustPanic("Study", func() { col.Study() })
	mustPanic("Merge", func() { col.Merge(NewCollector(f.idx, f.days, f.opts)) })
}

// TestFinalizedCollectorRejectsWrites: Study() hands out a view over the
// collector's columns, so every write path — the ingest core, a merge
// into or from it, and a partial's IngestBatch — must panic afterwards
// instead of changing a Study already in use.
func TestFinalizedCollectorRejectsWrites(t *testing.T) {
	f := buildDenseFixture(13)
	col := NewCollector(f.idx, f.days, f.opts)
	for _, r := range f.recs[:100] {
		ingestRecord(col, r, nil)
	}
	col.Study()
	col.Study() // reading twice is fine
	part := NewShardPartial(f.idx, f.days, f.opts)
	for _, r := range f.recs[:100] {
		part.Ingest(r)
	}
	part.EndLine()
	_, partCol := MergePartials([]*ShardPartial{part})
	partCol.Study()
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s after Study() did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("beginRun", func() { ingestRecord(col, f.recs[0], nil) })
	mustPanic("Merge into", func() { col.Merge(NewCollector(f.idx, f.days, f.opts)) })
	mustPanic("Merge from", func() { NewCollector(f.idx, f.days, f.opts).Merge(col) })
	mustPanic("IngestBatch", func() {
		part.Ingest(f.recs[0])
		part.EndLine()
	})
}

// TestDenseMergeMatchesMapReference: a round-robin partition of the
// randomized stream over several dense collectors (deliberately
// splitting lines across shards, including cross-"vantage" /8 plans)
// merges to exactly the sequential reference.
func TestDenseMergeMatchesMapReference(t *testing.T) {
	f := buildDenseFixture(7)
	const shards = 4
	parts := make([]*Collector, shards)
	for i := range parts {
		parts[i] = NewCollector(f.idx, f.days, f.opts)
	}
	ccParts := make([]*ContactCounter, shards)
	for i := range ccParts {
		ccParts[i] = NewContactCounter(f.idx)
	}
	seqCol := NewCollector(f.idx, f.days, f.opts)
	ref := newRefCollector(f.infos, f.days, f.opts)
	refCC := &refCounter{infos: f.infos, contacts: map[netip.Addr]map[netip.Addr]struct{}{}}
	for i, r := range f.recs {
		ingestRecord(parts[i%shards], r, nil)
		countRecord(ccParts[i%shards], r)
		ingestRecord(seqCol, r, nil)
		ref.ingest(r)
		refCC.ingest(r)
	}
	merged := parts[0]
	mergedCC := ccParts[0]
	for i := 1; i < shards; i++ {
		merged.Merge(parts[i])
		mergedCC.Merge(ccParts[i])
	}
	if !reflect.DeepEqual(named(merged.Study()), ref.study(f.idx)) {
		t.Fatal("merged dense study diverges from the sequential map reference")
	}
	if !reflect.DeepEqual(named(merged.Study()), named(seqCol.Study())) {
		t.Fatal("merged dense study diverges from the sequential dense collector")
	}
	if !reflect.DeepEqual(mergedCC.contactSets(), refCC.contacts) {
		t.Fatal("merged dense contacts diverge from the sequential map reference")
	}
}
