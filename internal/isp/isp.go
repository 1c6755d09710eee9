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
// function of (seed, line) alone, so SimulateLines hands contiguous
// line shards to parallel workers that each replay all study days for
// their lines straight into a worker-local sink — one pass, no
// week-sized record buffers — and report per-line completion so the
// aggregation layer (core/flows) can classify scanner lines and fold
// partial aggregates as lines finish. Simulate is the sequential
// reference with identical per-line output; SimulateDay remains as the
// day-granular path for chronological feeds (the window benches, the
// repository benchmark's daemon-live feed). SimulateLinesToWire exports
// the week as dictionary streams, the one format the border routers
// write.
//
// NewNetwork resolves everything that does not depend on the line-day:
// the population, and per (provider, continent) pair in it a shared
// read-only device class — the traffic profile and a homing table of
// the servers eligible on each study day (see eligibleServers). The
// world is immutable after world.Build, so the tables are too, and
// concurrent shards and vantages read them without a lock. Per line-day
// the simulator derives RNG streams only; a daily re-resolution is one
// draw indexing the device's table.
package isp

import (
	"fmt"
	"net/netip"
	"slices"
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
	// cur is the device's current backend server (daily re-resolution
	// may move it).
	cur *world.Server
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
	// servers are the eligible backends (see eligibleServers).
	servers []*world.Server
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

// Network is the built ISP model.
type Network struct {
	Cfg   Config
	World *world.World
	Lines []*Line
	// backendV4 is the flat list of scan targets for scanner lines.
	backendV4 []netip.Addr
	// Modifier, when set, adjusts or suppresses flows (outage injection).
	Modifier FlowModifier
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
	n := &Network{Cfg: cfg, World: w}
	for _, s := range w.AllServers() {
		if !s.IsV6() {
			n.backendV4 = append(n.backendV4, s.Addr)
		}
	}
	sort.Slice(n.backendV4, func(i, j int) bool { return n.backendV4[i].Less(n.backendV4[j]) })

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
					classes[key] = newDeviceClass(w, prof, dev.Continent)
				}
				dev.class = classes[key]
				line.Devices = append(line.Devices, dev)
			}
		}
		if rng.Bool(cfg.ScannerFraction) {
			b := int(rng.Pareto(10, 0.8))
			if b > len(n.backendV4) {
				b = len(n.backendV4)
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

// LineByAddr resolves a subscriber address to its line. The address
// plan is arithmetic (plan.go), so this is LineSlot plus the checks that
// the slot belongs to this Network: its vantage, a line it built, and —
// for a v6 slot — a line that holds a v6 prefix.
func (n *Network) LineByAddr(a netip.Addr) (*Line, bool) {
	vantage, slot, ok := LineSlot(a)
	if !ok || vantage != n.Cfg.VantageID || int(slot>>1) >= len(n.Lines) {
		return nil, false
	}
	l := n.Lines[slot>>1]
	if slot&1 == 1 && !l.HasV6() {
		return nil, false
	}
	return l, true
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

// newDeviceClass resolves the homing table of prof's devices homed to
// cont: one cell per study day.
func newDeviceClass(w *world.World, prof *traffic.Profile, cont geo.Continent) *deviceClass {
	c := &deviceClass{prof: prof, days: make([]homingCell, len(w.Days))}
	p := w.Providers[prof.ProviderID]
	if p == nil {
		return c // no such fleet: every cell stays empty, devices never home
	}
	var scratch []*world.Server
	for day := range c.days {
		scratch = eligibleServers(p, prof, cont, day, scratch)
		cell := &c.days[day]
		cell.servers = slices.Clone(scratch)
		if len(prof.RegionBias) == 0 {
			continue
		}
		cell.weights = make([]float64, len(scratch))
		for i, s := range scratch {
			wt := prof.RegionBias[s.Region.Region]
			if wt <= 0 {
				wt = 1
			}
			cell.weights[i] = wt
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

// simState is one worker's reusable randomness for the line-major
// loops: every per-(line, day) stream the simulation derives is Reset
// in place instead of allocated, so a whole simulated week costs a
// handful of RNG allocations per worker rather than several per
// line-day. Resetting yields bit-identical streams to the historical
// DeriveN calls (see simrand.Source.Reset).
type simState struct {
	sampler packetSampler
	lineRng simrand.Source
	modRng  simrand.Source
	homeRng simrand.Source
	scanRng simrand.Source
}

// SimulateDay generates one study day of sampled flow records into
// sink, sequentially in line order. It is the thin compatibility path
// for day-granular consumers (the NetFlow wire-export bench); the study
// pipeline uses SimulateLines instead. Device homing state carries over
// between consecutive days, so callers wanting day d must have replayed
// days 0..d-1 on the same Network (or accept fresh homing).
func (n *Network) SimulateDay(day int, sink func(netflow.Record)) {
	st := &simState{}
	dayStart := n.World.Days[day]
	for _, line := range n.Lines {
		n.lineDay(st, line, day, dayStart, sink)
	}
}

// lineWeek replays every study day of one line, in day order, into
// sink. Homing state is reset first, so the emitted week depends on
// (seed, line) alone — every call, on any worker, yields the same
// records.
func (n *Network) lineWeek(st *simState, line *Line, sink func(netflow.Record)) {
	for di := range line.Devices {
		line.Devices[di].cur = nil
	}
	for day, dayStart := range n.World.Days {
		n.lineDay(st, line, day, dayStart, sink)
	}
}

// SimulateLines runs the line-major single-pass pipeline over the whole
// study period: the line population splits into `workers` contiguous
// shards, and each shard's worker simulates all study days for each of
// its lines before moving to the next line. Records flow straight into
// the worker's own sink — there are no week-sized replay buffers — and
// after a line's final day the worker calls lineDone, at which point the
// sink has seen that line's complete week (scanner classification is a
// per-line property, so the caller can classify and fold the line's
// contribution immediately).
//
// sinkFor(shard) is called once per worker, before its first line.
// Per-line record order and the line order within a shard are identical
// to a sequential run; only cross-shard interleaving varies, so callers
// must keep per-shard state and merge it order-independently (or in
// shard index order) for deterministic results.
func (n *Network) SimulateLines(workers int, sinkFor func(shard int) func(netflow.Record), lineDone func(shard int, line *Line)) {
	if workers > len(n.Lines) {
		workers = len(n.Lines)
	}
	if workers <= 1 {
		st := &simState{}
		sink := sinkFor(0)
		for _, line := range n.Lines {
			n.lineWeek(st, line, sink)
			lineDone(0, line)
		}
		return
	}
	var wg sync.WaitGroup
	per := (len(n.Lines) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * per
		hi := min(lo+per, len(n.Lines))
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			st := &simState{}
			sink := sinkFor(w)
			for _, line := range n.Lines[lo:hi] {
				n.lineWeek(st, line, sink)
				lineDone(w, line)
			}
		}(w, lo, hi)
	}
	wg.Wait()
}

// lineDay simulates one line's devices and scanning for one day.
func (n *Network) lineDay(st *simState, line *Line, day int, dayStart time.Time, sink func(netflow.Record)) {
	st.sampler.Reset(n.Cfg.SamplingRate,
		simrand.SeedN(n.Cfg.Seed, "sampler-line", int64(line.ID), int64(day)))
	st.lineRng.Reset(simrand.SeedN(n.Cfg.Seed, "line", int64(line.ID), int64(day)))
	var modRng *simrand.Source
	if n.Modifier != nil {
		st.modRng.Reset(simrand.SeedN(n.Cfg.Seed, "modifier", int64(line.ID), int64(day)))
		modRng = &st.modRng
	}
	for di := range line.Devices {
		dev := &line.Devices[di]
		n.resolveDevice(st, dev, line, di, day)
		if dev.cur == nil {
			continue
		}
		n.deviceDay(line, dev, di, day, dayStart, &st.lineRng, modRng, &st.sampler, sink)
	}
	if line.ScanBreadth > 0 {
		n.scannerDay(st, line, day, dayStart, &st.lineRng, &st.sampler, sink)
	}
}

// resolveDevice performs the device's daily DNS re-resolution: a lookup
// in its class's homing table, drawn from the per-(line, device, day)
// homing stream.
func (n *Network) resolveDevice(st *simState, dev *Device, line *Line, devIdx, day int) {
	prof := dev.class.prof
	rng := &st.homeRng
	rng.Reset(simrand.SeedN(n.Cfg.Seed, "homing", int64(line.ID), int64(devIdx), int64(day)))
	needsNew := dev.cur == nil || !dev.cur.ActiveOn(day)
	if !needsNew && prof.RemapDaily > 0 && rng.Bool(prof.RemapDaily) {
		needsNew = true
	}
	if !needsNew {
		return
	}
	cell := &dev.class.days[day]
	switch {
	case len(cell.servers) == 0:
		dev.cur = nil
	case cell.weights == nil:
		dev.cur = cell.servers[rng.Intn(len(cell.servers))]
	default:
		dev.cur = cell.servers[rng.WeightedChoice(cell.weights)]
	}
}

// deviceDay emits the device's hourly exchanges for one day.
func (n *Network) deviceDay(line *Line, dev *Device, devIdx, day int, dayStart time.Time, rng, modRng *simrand.Source, sampler *packetSampler, sink func(netflow.Record)) {
	prof := dev.class.prof
	srv := dev.cur
	lineAddr := line.V4
	if srv.IsV6() {
		if !line.HasV6() {
			return // v6-only backend unreachable from a v4-only line
		}
		lineAddr = line.V6
	}
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
		at := dayStart.Add(time.Duration(hour) * time.Hour)
		ephemeral := uint16(40000 + (line.ID*7+devIdx*13+hour)%20000)
		transport := uint8(netflow.ProtoTCP)
		if port.Transport == 1 { // proto.UDP
			transport = netflow.ProtoUDP
		}
		emitSampled(sink, sampler, netflow.Record{
			Src: srv.Addr, Dst: lineAddr,
			SrcPort: port.Port, DstPort: ephemeral,
			Proto: transport, Bytes: down, Packets: pktCount(down),
			Start: at,
		})
		emitSampled(sink, sampler, netflow.Record{
			Src: lineAddr, Dst: srv.Addr,
			SrcPort: ephemeral, DstPort: port.Port,
			Proto: transport, Bytes: up, Packets: pktCount(up),
			Start: at,
		})
	}
}

// scannerDay spreads a scanner's probes across the week.
func (n *Network) scannerDay(st *simState, line *Line, day int, dayStart time.Time, rng *simrand.Source, sampler *packetSampler, sink func(netflow.Record)) {
	days := len(n.World.Days)
	perDay := line.ScanBreadth / days
	if rem := line.ScanBreadth % days; day < rem {
		perDay++
	}
	if perDay == 0 {
		return
	}
	// Deterministic disjoint slices of the target list per day.
	st.scanRng.Reset(simrand.SeedN(n.Cfg.Seed, "scan-order", int64(line.ID)))
	start := st.scanRng.Intn(max(len(n.backendV4), 1))
	offset := (line.ScanBreadth / days) * day
	if rem := line.ScanBreadth % days; day < rem {
		offset += day
	} else {
		offset += rem
	}
	for i := 0; i < perDay; i++ {
		target := n.backendV4[(start+offset+i)%len(n.backendV4)]
		at := dayStart.Add(time.Duration(rng.Intn(24)) * time.Hour)
		// Aggressive re-probing: enough packets to survive sampling.
		bytes := uint64(250 * 60)
		emitSampled(sink, sampler, netflow.Record{
			Src: line.V4, Dst: target,
			SrcPort: uint16(50000 + i%10000), DstPort: 8883,
			Proto: netflow.ProtoTCP, Bytes: bytes, Packets: 250,
			Start: at,
		})
	}
}

// Simulate replays every line's complete week into sink, line-major —
// the sequential reference for SimulateLines. Homing state resets per
// line, so repeated calls on the same Network emit identical streams.
func (n *Network) Simulate(sink func(netflow.Record)) {
	st := &simState{}
	for _, line := range n.Lines {
		n.lineWeek(st, line, sink)
	}
}

func emitSampled(sink func(netflow.Record), s *packetSampler, r netflow.Record) {
	sb, sp, ok := s.Sample(r.Bytes, r.Packets)
	if !ok {
		return
	}
	r.Bytes, r.Packets = sb, sp
	sink(r)
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
