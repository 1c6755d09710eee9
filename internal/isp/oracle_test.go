package isp

import (
	"fmt"
	"testing"
	"time"

	"iotmap/internal/netflow"
	"iotmap/internal/simrand"
	"iotmap/internal/world"
)

// The record emitter as it was before the simulator emitted rows: every
// exchange is built as a netflow.Record and sampled through emitSampled,
// every stream is seeded with simrand.SeedN on every line-day (silent
// lines included), and the sampler evaluates math.Exp per flow. It is
// the oracle the row emitter and its record adapter are checked against.

// oracle is one sequential pass's state; cur is each device's current
// server, keyed by line ID and device index. untabulated counts the
// flows whose packet count is past the row emitter's sampler table.
type oracle struct {
	n           *Network
	cur         map[[2]int]*world.Server
	sampler     *simrand.Source
	lineRng     *simrand.Source
	modRng      *simrand.Source
	rate        uint32
	untabulated int
}

// oracleSimulate replays every line's week, line-major, into sink (with
// the study day each record was drawn on) and calls lineDone after each
// line. It returns how many sampled flows were past the row emitter's
// exp table.
func oracleSimulate(n *Network, sink func(day int, r netflow.Record), lineDone func(*Line)) int {
	o := &oracle{n: n, cur: map[[2]int]*world.Server{}, rate: n.Cfg.SamplingRate}
	for i := range n.Lines {
		line := &n.Lines[i]
		for day, dayStart := range n.World.Days {
			o.lineDay(line, day, dayStart, func(r netflow.Record) { sink(day, r) })
		}
		lineDone(line)
	}
	return o.untabulated
}

func (o *oracle) lineDay(line *Line, day int, dayStart time.Time, sink func(netflow.Record)) {
	seed := o.n.Cfg.Seed
	o.sampler = simrand.New(simrand.SeedN(simrand.SeedN(seed, "sampler-line", int64(line.ID), int64(day)), "netflow-sampler"))
	o.lineRng = simrand.New(simrand.SeedN(seed, "line", int64(line.ID), int64(day)))
	if o.n.Modifier != nil {
		o.modRng = simrand.New(simrand.SeedN(seed, "modifier", int64(line.ID), int64(day)))
	}
	for di := range line.Devices {
		dev := &line.Devices[di]
		srv := o.resolveDevice(dev, line, di, day)
		if srv == nil {
			continue
		}
		o.deviceDay(line, dev, srv, di, day, dayStart, sink)
	}
	if line.ScanBreadth > 0 {
		o.scannerDay(line, day, dayStart, sink)
	}
}

func (o *oracle) resolveDevice(dev *Device, line *Line, devIdx, day int) *world.Server {
	prof := dev.class.prof
	key := [2]int{line.ID, devIdx}
	cur := o.cur[key]
	rng := simrand.New(simrand.SeedN(o.n.Cfg.Seed, "homing", int64(line.ID), int64(devIdx), int64(day)))
	needsNew := cur == nil || !cur.ActiveOn(day)
	if !needsNew && prof.RemapDaily > 0 && rng.Bool(prof.RemapDaily) {
		needsNew = true
	}
	if !needsNew {
		return cur
	}
	cell := &dev.class.days[day]
	switch {
	case len(cell.servers) == 0:
		cur = nil
	case cell.weights == nil:
		cur = o.n.servers[cell.servers[rng.Intn(len(cell.servers))]]
	default:
		cur = o.n.servers[cell.servers[rng.WeightedChoice(cell.weights)]]
	}
	o.cur[key] = cur
	return cur
}

func (o *oracle) deviceDay(line *Line, dev *Device, srv *world.Server, devIdx, day int, dayStart time.Time, sink func(netflow.Record)) {
	prof := dev.class.prof
	rng := o.lineRng
	lineAddr := line.V4()
	if srv.IsV6() {
		if !line.HasV6() {
			return
		}
		lineAddr = line.V6()
	}
	var heavyHours [24]bool
	if dev.Heavy {
		for k := 0; k < 4; k++ {
			heavyHours[rng.Intn(24)] = true
		}
	}
	for hour := 0; hour < 24; hour++ {
		localHour := (hour + localUTCOffset + 24) % 24
		active := rng.Bool(prof.ActiveHourProb * prof.Shape.HourWeight(localHour))
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
		if o.n.Modifier != nil {
			var emit bool
			down, up, emit = o.n.Modifier(o.modRng, day, hour, srv, down, up)
			if !emit {
				continue
			}
		}
		at := dayStart.Add(time.Duration(hour) * time.Hour)
		ephemeral := uint16(40000 + (line.ID*7+devIdx*13+hour)%20000)
		transport := uint8(netflow.ProtoTCP)
		if port.Transport == 1 {
			transport = netflow.ProtoUDP
		}
		o.emitSampled(sink, netflow.Record{
			Src: srv.Addr, Dst: lineAddr,
			SrcPort: port.Port, DstPort: ephemeral,
			Proto: transport, Bytes: down, Packets: pktCount(down),
			Start: at,
		})
		o.emitSampled(sink, netflow.Record{
			Src: lineAddr, Dst: srv.Addr,
			SrcPort: ephemeral, DstPort: port.Port,
			Proto: transport, Bytes: up, Packets: pktCount(up),
			Start: at,
		})
	}
}

func (o *oracle) scannerDay(line *Line, day int, dayStart time.Time, sink func(netflow.Record)) {
	days := len(o.n.World.Days)
	perDay := line.ScanBreadth / days
	if rem := line.ScanBreadth % days; day < rem {
		perDay++
	}
	if perDay == 0 {
		return
	}
	// The scan targets, sorted by address, as the pre-row emitter kept
	// them.
	var targets []*world.Server
	for _, s := range o.n.World.AllServers() {
		if !s.IsV6() {
			targets = append(targets, s)
		}
	}
	sortServers(targets)
	start := simrand.New(simrand.SeedN(o.n.Cfg.Seed, "scan-order", int64(line.ID))).Intn(max(len(targets), 1))
	offset := (line.ScanBreadth / days) * day
	if rem := line.ScanBreadth % days; day < rem {
		offset += day
	} else {
		offset += rem
	}
	for i := 0; i < perDay; i++ {
		target := targets[(start+offset+i)%len(targets)].Addr
		at := dayStart.Add(time.Duration(o.lineRng.Intn(24)) * time.Hour)
		o.emitSampled(sink, netflow.Record{
			Src: line.V4(), Dst: target,
			SrcPort: uint16(50000 + i%10000), DstPort: 8883,
			Proto: netflow.ProtoTCP, Bytes: 250 * 60, Packets: 250,
			Start: at,
		})
	}
}

func (o *oracle) emitSampled(sink func(netflow.Record), r netflow.Record) {
	if o.rate > 1 {
		if r.Packets >= uint64(len(o.n.exp)) {
			o.untabulated++
		}
		sb, sp, ok := referenceSample(o.sampler, o.rate, r.Bytes, r.Packets)
		if !ok {
			return
		}
		r.Bytes, r.Packets = sb, sp
	}
	sink(r)
}

// sortServers orders servers by address (insertion sort: the oracle is
// slow on purpose and the lists are small).
func sortServers(s []*world.Server) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j].Addr.Less(s[j-1].Addr); j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// oracleNetworks are the seeded networks the emitter is checked on: a
// plain one, one with many scanners and a FlowModifier, and one whose
// sampling rate puts its large flows past the sampler's table.
func oracleNetworks(t *testing.T) map[string]*Network {
	t.Helper()
	w := fingerprintWorld(t)
	nets := map[string]*Network{}
	for name, cfg := range map[string]Config{
		"plain":             {Seed: 23, Lines: 500},
		"scanners+modifier": {Seed: 29, Lines: 500, ScannerFraction: 0.04},
		"rate-above-table":  {Seed: 31, Lines: 800, IoTPenetration: 0.6, SamplingRate: 2000},
	} {
		n, err := NewNetwork(cfg, w)
		if err != nil {
			t.Fatal(err)
		}
		if name == "scanners+modifier" {
			n.Modifier = outageModifier
		}
		nets[name] = n
	}
	return nets
}

// TestRowEmitterMatchesOracle: on every oracle network, at 1 and 3
// workers, EmitLines makes one row per oracle record — same line, same
// server, direction, hour, backend-side port, transport and sampled
// counters, in the same order — and SimulateLines materializes records
// equal to the oracle's field for field, client-side ports included.
// SimulateDay, replayed over days 0..6 on a fresh Network, materializes
// the oracle's records regrouped day-major.
func TestRowEmitterMatchesOracle(t *testing.T) {
	for name, n := range oracleNetworks(t) {
		var want []netflow.Record
		var wantLines []int
		byDay := make([][]netflow.Record, len(n.World.Days))
		untabulated := oracleSimulate(n, func(day int, r netflow.Record) {
			want = append(want, r)
			byDay[day] = append(byDay[day], r)
		}, func(l *Line) { wantLines = append(wantLines, l.ID) })
		if len(want) == 0 {
			t.Fatalf("%s: the oracle emitted nothing", name)
		}
		if name == "scanners+modifier" && !hasScanner(n) {
			t.Fatalf("%s: no scanner line", name)
		}
		if name == "rate-above-table" && untabulated == 0 {
			t.Fatalf("%s: no flow reached past the sampler's table", name)
		}
		for _, workers := range []int{1, 3} {
			rows := make([][]wireRow, workers)
			lines := make([][]int, workers)
			n.EmitLines(workers, func(shard int, line *Line, b *netflow.RecordBatch) {
				lines[shard] = append(lines[shard], line.ID)
				for i := 0; i < b.Len(); i++ {
					la := line.V4()
					if b.Line[i] == 1 {
						la = line.V6()
					}
					rows[shard] = append(rows[shard], wireRow{
						la, n.BackendAddrs()[b.Backend[i]], b.Down[i],
						n.World.Days[0].Add(time.Duration(b.Hour[i]) * time.Hour),
						b.Port[i], b.Proto[i], b.Bytes[i], b.Packets[i],
					})
				}
			})
			var got []wireRow
			var gotLines []int
			for w := range rows {
				got = append(got, rows[w]...)
				gotLines = append(gotLines, lines[w]...)
			}
			if len(gotLines) != len(wantLines) {
				t.Fatalf("%s at %d workers: lineDone fired %d times, want %d", name, workers, len(gotLines), len(wantLines))
			}
			for i := range wantLines {
				if gotLines[i] != wantLines[i] {
					t.Fatalf("%s at %d workers: completion %d is line %d, want %d", name, workers, i, gotLines[i], wantLines[i])
				}
			}
			if len(got) != len(want) {
				t.Fatalf("%s at %d workers: %d rows, oracle %d records", name, workers, len(got), len(want))
			}
			for i := range want {
				if got[i] != rowOf(want[i]) {
					t.Fatalf("%s at %d workers: row %d\n got %+v\nwant %+v", name, workers, i, got[i], rowOf(want[i]))
				}
			}

			recs := make([][]netflow.Record, workers)
			n.SimulateLines(workers,
				func(shard int) func(netflow.Record) {
					return func(r netflow.Record) { recs[shard] = append(recs[shard], r) }
				},
				func(int, *Line) {})
			var all []netflow.Record
			for _, rs := range recs {
				all = append(all, rs...)
			}
			sameRecords(t, fmt.Sprintf("%s at %d workers", name, workers), all, want)
		}

		fresh, err := NewNetwork(n.Cfg, n.World)
		if err != nil {
			t.Fatal(err)
		}
		fresh.Modifier = n.Modifier
		for day := range fresh.World.Days {
			var got []netflow.Record
			fresh.SimulateDay(day, func(r netflow.Record) { got = append(got, r) })
			sameRecords(t, fmt.Sprintf("%s SimulateDay(%d)", name, day), got, byDay[day])
		}
	}
}

// sameRecords fails unless got equals want record for record.
func sameRecords(t *testing.T, what string, got, want []netflow.Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: adapter made %d records, oracle %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: record %d\n got %+v\nwant %+v", what, i, got[i], want[i])
		}
	}
}

func hasScanner(n *Network) bool {
	for _, l := range n.Lines {
		if l.ScanBreadth > 0 {
			return true
		}
	}
	return false
}
