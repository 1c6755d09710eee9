// Package isp models the European residential ISP vantage point of
// Section 5: subscriber lines (IPv4 and IPv6) hosting IoT devices,
// scanner-infested lines, and the border routers that export packet-
// sampled NetFlow for every flow exchanged with the identified IoT
// backends.
//
// Only backend-bound traffic is generated — the analyses filter to the
// discovered backend IPs anyway, so general web traffic would be
// simulated and immediately discarded. Subscriber addresses are
// synthetic and the collector anonymizes per line, mirroring the paper's
// PII handling (Section 3.7).
//
// Simulation is line-major: every line's week is a deterministic
// function of (seed, line) alone, so EmitLines hands contiguous line
// shards to parallel workers, each handing over a line's week as rows
// (a netflow.RecordBatch naming backends by server ordinal) for the
// aggregation layer (core/flows) to fold. SimulateLinesToWire exports
// the rows as dictionary streams, the one format the border routers
// write; SimulateLines and SimulateDay are record adapters.
//
// NewNetwork resolves everything that does not depend on the line-day:
// the population, the server table, the stream labels, the sampler's
// exp(-λ) table, and per (provider, continent) pair a shared read-only
// device class — the traffic profile and a homing table of the servers
// eligible on each study day (see eligibleServers). All of it is
// immutable, so concurrent shards and vantages read it without a lock.
// Per line-day the simulator derives RNG streams only, and none for a
// silent line; a daily re-resolution is one draw indexing a table.
package isp

import (
	"fmt"
	"net/netip"
	"sort"
	"sync"
	"time"

	"iotmap/internal/geo"
	"iotmap/internal/netflow"
	"iotmap/internal/simrand"
	"iotmap/internal/traffic"
	"iotmap/internal/world"
)

// Config sizes the ISP model.
type Config struct {
	// Seed derives all stochastic structure.
	Seed int64
	// Lines is the number of broadband subscriber lines (the paper's ISP
	// has >15M; simulate at 1:100 to 1:1000).
	Lines int
	// IoTPenetration is the fraction of lines hosting IoT devices.
	IoTPenetration float64
	// V6Fraction of lines also hold an IPv6 prefix.
	V6Fraction float64
	// ScannerFraction of lines run Internet-wide scanners (Figure 5).
	ScannerFraction float64
	// SamplingRate is the NetFlow packet sampling denominator.
	SamplingRate uint32
	// LocalUTCOffset shifts activity shapes to the ISP's local time.
	LocalUTCOffset int
	// VantageID distinguishes federated vantage-point worlds: it is
	// folded into subscriber address derivation (v4 first octet, v6
	// prefix) so lines of different vantages never alias in a union
	// analysis. 0 is the classic single-ISP address plan. Addresses are
	// generated by LineV4Addr/LineV6Addr and arithmetically reversible
	// via LineSlot — see plan.go for the Addr→LineID contract.
	VantageID int
	// ContinentBias, when non-nil, reweights the continents devices home
	// their backends to (an ISP in another market sees another backend
	// mix). Weights multiply the per-provider profile mix; continents
	// absent from the map keep weight 1.
	ContinentBias map[geo.Continent]float64
}

func (c Config) withDefaults() Config {
	if c.Lines <= 0 {
		c.Lines = 20000
	}
	if c.IoTPenetration <= 0 {
		c.IoTPenetration = 0.2
	}
	if c.V6Fraction <= 0 {
		c.V6Fraction = 0.3
	}
	if c.ScannerFraction < 0 {
		c.ScannerFraction = 0
	} else if c.ScannerFraction == 0 {
		c.ScannerFraction = 0.0035
	}
	if c.SamplingRate == 0 {
		c.SamplingRate = 100
	}
	if c.LocalUTCOffset == 0 {
		c.LocalUTCOffset = 1 // central Europe
	}
	return c
}

// Device is one IoT device on a line.
type Device struct {
	Provider  string
	Continent geo.Continent
	Heavy     bool
	// class is what NewNetwork resolved for (Provider, Continent): the
	// traffic profile and the per-day homing table.
	class *deviceClass
	// cur is the ordinal+1 of the device's current backend server, 0
	// while it is not homed (daily re-resolution may move it).
	cur uint32
}

// deviceClass is everything the devices of one (provider, continent)
// pair share. NewNetwork builds one per pair its population contains and
// nothing writes to it afterwards, so parallel line shards — and several
// Networks over one World — read it without a lock.
type deviceClass struct {
	prof *traffic.Profile
	// days[d] is where a device of this class may home on study day d.
	days []homingCell
}

// homingCell is one day of a class's homing table.
type homingCell struct {
	// servers are the ordinals of the eligible backends (see
	// eligibleServers).
	servers []uint32
	// weights is the profile's RegionBias column over servers; nil when
	// the profile has no bias and the pick is uniform.
	weights []float64
}

// Line is one subscriber line.
type Line struct {
	ID int
	V4 netip.Addr
	// V6 is invalid when the line is IPv4-only.
	V6      netip.Addr
	Devices []Device
	// ScanBreadth is the number of backend IPs a scanner line probes
	// over the week (0 = not a scanner).
	ScanBreadth int
}

// HasV6 reports whether the line holds an IPv6 prefix.
func (l *Line) HasV6() bool { return l.V6.IsValid() }

// Addrs returns the addresses an EmitLines row's line column indexes:
// V4, then V6 when the line holds one.
func (l *Line) Addrs() []netip.Addr {
	if l.HasV6() {
		return []netip.Addr{l.V4, l.V6}
	}
	return []netip.Addr{l.V4}
}

// Network is the built ISP model.
type Network struct {
	Cfg   Config
	World *world.World
	Lines []*Line
	// Modifier, when set, adjusts or suppresses flows (outage injection).
	Modifier FlowModifier

	// servers is the server table (World.AllServers): rows name a
	// backend by its index, its ordinal. addrs are their addresses, and
	// scanTargets the v4 ordinals in address order, which scanners walk.
	servers     []*world.Server
	addrs       []netip.Addr
	scanTargets []uint32
	// labels are the per-(line, day) stream labels, hashed once; exp is
	// the sampler's table (expTable).
	labels struct{ samplerLine, line, modifier, homing, scanOrder simrand.Label }
	exp    []float64
}

// FlowModifier rewrites one device-hour's volumes; returning emit=false
// drops the exchange entirely (a device that gave up). rng is a dedicated
// per-(line, day) stream: modifiers draw randomness from it rather than
// shared state (race-free under the parallel day loop) and never perturb
// the base simulation's streams, so flows outside a scenario's blast
// radius stay bit-identical to a modifier-less baseline run.
type FlowModifier func(rng *simrand.Source, day, hour int, srv *world.Server, down, up uint64) (newDown, newUp uint64, emit bool)

// ChainModifiers composes modifiers left to right: each sees the
// volumes the previous one produced, and the first emit=false wins (a
// dropped flow is dropped; later modifiers never see it, so they draw
// nothing from the rng for it). Nil entries are skipped; an all-nil (or
// empty) chain returns nil, so installing it is a no-op and a
// modifier-less run stays bit-identical to the baseline.
func ChainModifiers(mods ...FlowModifier) FlowModifier {
	live := make([]FlowModifier, 0, len(mods))
	for _, m := range mods {
		if m != nil {
			live = append(live, m)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return func(rng *simrand.Source, day, hour int, srv *world.Server, down, up uint64) (uint64, uint64, bool) {
		for _, m := range live {
			var emit bool
			down, up, emit = m(rng, day, hour, srv, down, up)
			if !emit {
				return down, up, false
			}
		}
		return down, up, true
	}
}

// maxLines bounds the subscriber population: line addresses are derived
// from the low three ID bytes, so IDs at or above 2^24 would silently
// alias earlier lines' V4 and V6 addresses.
const maxLines = 1 << 24

// maxVantageID bounds the federated address plan: vantage v's lines
// live in (95+v).0.0.0/8, which must stay clear of the world's backend
// pools (16.0.0.0/6) and of the byte ceiling.
const maxVantageID = 63

// NewNetwork builds the subscriber population against a world.
func NewNetwork(cfg Config, w *world.World) (*Network, error) {
	cfg = cfg.withDefaults()
	if cfg.Lines > maxLines {
		return nil, fmt.Errorf("isp: %d lines exceed the %d address-derivation limit (IDs wrap into colliding subscriber addresses)", cfg.Lines, maxLines)
	}
	if cfg.VantageID < 0 || cfg.VantageID > maxVantageID {
		return nil, fmt.Errorf("isp: vantage ID %d outside [0, %d] (the per-vantage /8 address plan)", cfg.VantageID, maxVantageID)
	}
	n := &Network{Cfg: cfg, World: w, servers: w.AllServers(), exp: expTable(cfg.SamplingRate)}
	l := func(label string) simrand.Label { return simrand.NewLabel(cfg.Seed, label) }
	n.labels.samplerLine, n.labels.line, n.labels.modifier, n.labels.homing, n.labels.scanOrder = l("sampler-line"), l("line"), l("modifier"), l("homing"), l("scan-order")
	n.addrs = make([]netip.Addr, len(n.servers))
	ordOf := make(map[*world.Server]uint32, len(n.servers))
	for i, s := range n.servers {
		n.addrs[i] = s.Addr
		ordOf[s] = uint32(i)
		if !s.IsV6() {
			n.scanTargets = append(n.scanTargets, uint32(i))
		}
	}
	sort.Slice(n.scanTargets, func(i, j int) bool { return n.addrs[n.scanTargets[i]].Less(n.addrs[n.scanTargets[j]]) })

	ids := traffic.ProviderIDs()
	profiles := traffic.Profiles()
	profs := make([]*traffic.Profile, len(ids))
	shareWeights := make([]float64, len(ids))
	for i, id := range ids {
		prof := profiles[id]
		profs[i] = &prof
		shareWeights[i] = prof.LineShare
	}
	type classKey struct {
		provider int
		cont     geo.Continent
	}
	classes := map[classKey]*deviceClass{}

	rng := simrand.Derive(cfg.Seed, "isp")
	for i := 0; i < cfg.Lines; i++ {
		line := &Line{
			ID: i,
			V4: LineV4Addr(cfg.VantageID, i),
		}
		if rng.Bool(cfg.V6Fraction) {
			line.V6 = LineV6Addr(cfg.VantageID, i)
		}
		if rng.Bool(cfg.IoTPenetration) {
			nDev := 1 + rng.Zipf(1.6, 4) // 1..4, mostly 1
			for d := 0; d < nDev; d++ {
				pi := rng.WeightedChoice(shareWeights)
				prof := profs[pi]
				dev := Device{
					Provider:  ids[pi],
					Continent: prof.PickContinentBiased(rng, cfg.ContinentBias),
					Heavy:     prof.HeavyFrac > 0 && rng.Bool(prof.HeavyFrac),
				}
				key := classKey{pi, dev.Continent}
				if classes[key] == nil {
					classes[key] = newDeviceClass(w, ordOf, prof, dev.Continent)
				}
				dev.class = classes[key]
				line.Devices = append(line.Devices, dev)
			}
		}
		if rng.Bool(cfg.ScannerFraction) {
			b := int(rng.Pareto(10, 0.8))
			if b > len(n.scanTargets) {
				b = len(n.scanTargets)
			}
			line.ScanBreadth = b
		}
		n.Lines = append(n.Lines, line)
	}
	if len(n.Lines) == 0 {
		return nil, fmt.Errorf("isp: no lines")
	}
	return n, nil
}

// IoTLines counts lines hosting at least one device.
func (n *Network) IoTLines() int {
	c := 0
	for _, l := range n.Lines {
		if len(l.Devices) > 0 {
			c++
		}
	}
	return c
}

// BackendAddrs is the server table's addresses: the backend column of
// an EmitLines row indexes it. Callers must not modify it.
func (n *Network) BackendAddrs() []netip.Addr { return n.addrs }

// newDeviceClass resolves the homing table of prof's devices homed to
// cont: one cell per study day, naming servers by their ordinal in
// ordOf.
func newDeviceClass(w *world.World, ordOf map[*world.Server]uint32, prof *traffic.Profile, cont geo.Continent) *deviceClass {
	c := &deviceClass{prof: prof, days: make([]homingCell, len(w.Days))}
	p := w.Providers[prof.ProviderID]
	if p == nil {
		return c // no such fleet: every cell stays empty, devices never home
	}
	var scratch []*world.Server
	for day := range c.days {
		scratch = eligibleServers(p, prof, cont, day, scratch)
		cell := &c.days[day]
		cell.servers = make([]uint32, len(scratch))
		if len(prof.RegionBias) > 0 {
			cell.weights = make([]float64, len(scratch))
		}
		for i, s := range scratch {
			cell.servers[i] = ordOf[s]
			if cell.weights != nil {
				cell.weights[i] = prof.RegionBias[s.Region.Region]
				if cell.weights[i] <= 0 {
					cell.weights[i] = 1
				}
			}
		}
	}
	return c
}

// eligibleServers returns the device-reachable backend servers of a
// provider in a continent on a day: the active servers of that
// continent, trimmed to the profile's ServerSpread (the part of the
// fleet that ever serves this ISP — Figure 6's visibility ceiling).
// scratch is reused as the result's backing storage. It is the one scan
// of a provider's fleet; the simulator only ever reads its results out
// of the homing tables.
func eligibleServers(p *world.Provider, prof *traffic.Profile, cont geo.Continent, day int, scratch []*world.Server) []*world.Server {
	inCont := scratch[:0]
	for _, s := range p.Servers {
		if s.ActiveOn(day) && s.Region.Continent == cont {
			inCont = append(inCont, s)
		}
	}
	if len(inCont) == 0 {
		// No presence on that continent: devices cross to wherever the
		// provider lives.
		for _, s := range p.Servers {
			if s.ActiveOn(day) {
				inCont = append(inCont, s)
			}
		}
	}
	spread := prof.ServerSpread
	if spread <= 0 || spread > 1 {
		spread = 1
	}
	k := int(float64(len(inCont))*spread + 0.999)
	if k < 1 {
		k = 1
	}
	if k > len(inCont) {
		k = len(inCont)
	}
	return inCont[:k]
}

// simState is one worker's reusable state for the line-major loops:
// every per-(line, day) stream is Reset in place instead of allocated
// (bit-identical to the historical DeriveN calls, see
// simrand.Source.Reset), and every line's rows reuse one batch.
type simState struct {
	sampler packetSampler
	lineRng simrand.Source
	modRng  simrand.Source
	homeRng simrand.Source
	scanRng simrand.Source
	// rows is the line being emitted; client, its subscriber-side ports,
	// is read only by the record adapter.
	rows   netflow.RecordBatch
	client []uint16
}

func (n *Network) newSimState() *simState {
	return &simState{sampler: packetSampler{rate: n.Cfg.SamplingRate, exp: n.exp}}
}

// EmitLines is the simulator: `workers` workers each take a contiguous
// shard of lines and hand lineDone every line's week as rows, one per
// sampled exchange: Line indexes Line.Addrs, Backend BackendAddrs, Hour
// counts whole hours since World.Days[0], Port is the backend side's.
// lineDone may rewrite rows but not keep them. Only cross-shard
// interleaving varies between runs, so callers keep per-shard state
// and merge it order-independently.
func (n *Network) EmitLines(workers int, lineDone func(shard int, line *Line, rows *netflow.RecordBatch)) {
	n.run(workers, func(shard int) func(*simState, *Line) {
		return func(st *simState, line *Line) { lineDone(shard, line, &st.rows) }
	})
}

// run drives the shards: worker(shard) is called once per worker,
// before its first line, and returns what it does with each line. Shard
// 0 runs on the calling goroutine.
func (n *Network) run(workers int, worker func(shard int) func(*simState, *Line)) {
	workers = max(min(workers, len(n.Lines)), 1)
	per := (len(n.Lines) + workers - 1) / workers
	shard := func(w int) {
		st := n.newSimState()
		done := worker(w)
		for _, line := range n.Lines[w*per : min((w+1)*per, len(n.Lines))] {
			n.lineWeek(st, line)
			done(st, line)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w*per < len(n.Lines); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			shard(w)
		}()
	}
	shard(0)
	wg.Wait()
}

// SimulateLines is EmitLines with every row materialized as the
// netflow.Record it stands for: a record adapter, kept for the
// benchmark module's pin and the tests.
func (n *Network) SimulateLines(workers int, sinkFor func(shard int) func(netflow.Record), lineDone func(shard int, line *Line)) {
	n.run(workers, func(shard int) func(*simState, *Line) {
		sink := sinkFor(shard)
		return func(st *simState, line *Line) {
			n.records(st, line, sink)
			lineDone(shard, line)
		}
	})
}

// SimulateDay generates one study day of records into sink, in line
// order: a record adapter kept for the benchmark module's pin (its
// daemon-live feed) and the window benches. Homing state carries over
// between days, so day d follows days 0..d-1 on the same Network.
func (n *Network) SimulateDay(day int, sink func(netflow.Record)) {
	st := n.newSimState()
	for _, line := range n.Lines {
		st.rows.Reset()
		st.client = st.client[:0]
		n.lineDay(st, line, day)
		n.records(st, line, sink)
	}
}

// records materializes line's rows in st as netflow.Records.
func (n *Network) records(st *simState, line *Line, sink func(netflow.Record)) {
	b, addrs := &st.rows, line.Addrs()
	for i, slot := range b.Line {
		lineAddr, srv := addrs[slot], n.addrs[b.Backend[i]]
		r := netflow.Record{
			Src: lineAddr, Dst: srv,
			SrcPort: st.client[i], DstPort: b.Port[i],
			Proto: b.Proto[i], Bytes: b.Bytes[i], Packets: b.Packets[i],
			Start: n.World.Days[0].Add(time.Duration(b.Hour[i]) * time.Hour),
		}
		if b.Down[i] {
			r.Src, r.Dst, r.SrcPort, r.DstPort = srv, lineAddr, b.Port[i], st.client[i]
		}
		sink(r)
	}
}

// lineWeek replays every study day of one line into st.rows. Homing
// state is reset first, so the rows depend on (seed, line) alone.
func (n *Network) lineWeek(st *simState, line *Line) {
	st.rows.Reset()
	st.client = st.client[:0]
	for di := range line.Devices {
		line.Devices[di].cur = 0
	}
	for day := range n.World.Days {
		n.lineDay(st, line, day)
	}
}

// lineDay simulates one line's devices and scanning for one day.
func (n *Network) lineDay(st *simState, line *Line, day int) {
	if len(line.Devices) == 0 && line.ScanBreadth == 0 {
		// A silent line draws nothing, and every stream below is Reset
		// per line-day, so not seeding them moves no draw.
		return
	}
	id, d, hour0 := int64(line.ID), int64(day), int32(n.World.Days[day].Sub(n.World.Days[0])/time.Hour)
	st.sampler.Reset(n.labels.samplerLine.SeedN(id, d))
	st.lineRng.Reset(n.labels.line.SeedN(id, d))
	var modRng *simrand.Source
	if n.Modifier != nil {
		st.modRng.Reset(n.labels.modifier.SeedN(id, d))
		modRng = &st.modRng
	}
	for di := range line.Devices {
		dev := &line.Devices[di]
		n.resolveDevice(st, dev, line, di, day)
		if dev.cur == 0 {
			continue
		}
		n.deviceDay(st, line, dev, di, day, hour0, modRng)
	}
	if line.ScanBreadth > 0 {
		n.scannerDay(st, line, day, hour0)
	}
}

// resolveDevice performs the device's daily DNS re-resolution: a lookup
// in its class's homing table, drawn from the per-(line, device, day)
// homing stream.
func (n *Network) resolveDevice(st *simState, dev *Device, line *Line, devIdx, day int) {
	prof := dev.class.prof
	rng := &st.homeRng
	rng.Reset(n.labels.homing.SeedN(int64(line.ID), int64(devIdx), int64(day)))
	needsNew := dev.cur == 0 || !n.servers[dev.cur-1].ActiveOn(day)
	if !needsNew && prof.RemapDaily > 0 && rng.Bool(prof.RemapDaily) {
		needsNew = true
	}
	if !needsNew {
		return
	}
	cell := &dev.class.days[day]
	switch {
	case len(cell.servers) == 0:
		dev.cur = 0
	case cell.weights == nil:
		dev.cur = cell.servers[rng.Intn(len(cell.servers))] + 1
	default:
		dev.cur = cell.servers[rng.WeightedChoice(cell.weights)] + 1
	}
}

// deviceDay emits the device's hourly exchanges for one day.
func (n *Network) deviceDay(st *simState, line *Line, dev *Device, devIdx, day int, hour0 int32, modRng *simrand.Source) {
	prof := dev.class.prof
	ord := dev.cur - 1
	srv := n.servers[ord]
	var slot uint32 // the line's V4 address
	if srv.IsV6() {
		if !line.HasV6() {
			return // v6-only backend unreachable from a v4-only line
		}
		slot = 1
	}
	rng := &st.lineRng
	var heavyHours [24]bool
	if dev.Heavy {
		for k := 0; k < 4; k++ {
			heavyHours[rng.Intn(24)] = true
		}
	}
	for hour := 0; hour < 24; hour++ {
		localHour := (hour + n.Cfg.LocalUTCOffset + 24) % 24
		active := prof.ActiveThisHour(rng, localHour)
		heavy := dev.Heavy && heavyHours[hour]
		if !active && !heavy {
			continue
		}
		var down, up uint64
		port := prof.PickPort(rng)
		if active {
			down, up = prof.DrawHourVolumes(rng)
		}
		if heavy {
			h := prof.DrawHeavyDaily(rng) / 4
			down += h
			up += h / 6
			port = prof.HeavyPort
		}
		if n.Modifier != nil {
			var emit bool
			down, up, emit = n.Modifier(modRng, day, hour, srv, down, up)
			if !emit {
				continue
			}
		}
		h := hour0 + int32(hour)
		client := uint16(40000 + (line.ID*7+devIdx*13+hour)%20000)
		transport := uint8(netflow.ProtoTCP)
		if port.Transport == 1 { // proto.UDP
			transport = netflow.ProtoUDP
		}
		st.emit(slot, ord, true, h, port.Port, client, transport, down, pktCount(down))
		st.emit(slot, ord, false, h, port.Port, client, transport, up, pktCount(up))
	}
}

// scannerDay spreads a scanner's probes across the week.
func (n *Network) scannerDay(st *simState, line *Line, day int, hour0 int32) {
	days := len(n.World.Days)
	perDay := line.ScanBreadth / days
	if rem := line.ScanBreadth % days; day < rem {
		perDay++
	}
	if perDay == 0 {
		return
	}
	// Deterministic disjoint slices of the target list per day.
	st.scanRng.Reset(n.labels.scanOrder.SeedN(int64(line.ID)))
	start := st.scanRng.Intn(max(len(n.scanTargets), 1))
	offset := (line.ScanBreadth / days) * day
	if rem := line.ScanBreadth % days; day < rem {
		offset += day
	} else {
		offset += rem
	}
	for i := 0; i < perDay; i++ {
		target := n.scanTargets[(start+offset+i)%len(n.scanTargets)]
		h := hour0 + int32(st.lineRng.Intn(24))
		// Aggressive re-probing: enough packets to survive sampling.
		st.emit(0, target, false, h, 8883, uint16(50000+i%10000), netflow.ProtoTCP, 250*60, 250)
	}
}

// emit appends one exchange to the line's rows if the sampler observes
// it, with its sampled counters; client is the subscriber-side port.
func (st *simState) emit(slot, ord uint32, down bool, hour int32, port, client uint16, proto uint8, bytes, packets uint64) {
	sb, sp, ok := st.sampler.Sample(bytes, packets)
	if !ok {
		return
	}
	st.rows.Append(slot, ord, down, hour, port, proto, sb, sp)
	st.client = append(st.client, client)
}

// pktCount estimates the packet count of a byte volume (≈900B payload
// per packet plus a floor for the handshake).
func pktCount(bytes uint64) uint64 {
	p := bytes / 900
	if p < 3 {
		p = 3
	}
	return p
}
