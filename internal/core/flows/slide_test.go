package flows

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"iotmap/internal/isp"
	"iotmap/internal/netflow"
	"iotmap/internal/world"
)

// rebuiltFold folds the current frame from scratch, as a cold read
// does, without touching the window's fold cache: the slide's oracle.
func (w *Window) rebuiltFold() (*ContactCounter, *Collector) {
	w.foldMu.Lock()
	defer w.foldMu.Unlock()
	w.lockShards()
	defer w.unlockShards()
	end := w.endA.Load()
	ws := w.startHour(end)
	f := w.newFoldFrame(ws, end)
	w.foldRange(f, ws, end+1)
	return f.cc, f.col
}

// slideFeed makes seeded records for chosen hours over a dense
// fixture's backends: a pool of ordinary lines, a heavy line that
// crosses the scanner threshold in some flushes, and a wandering line
// that appears only when asked. Only the wanderer reaches the backends
// of alias O1, on a port of its own, so its alias, port, slots and
// contacts leave the frame with it.
type slideFeed struct {
	rng      *rand.Rand
	epoch    time.Time
	backends []netip.Addr
	lines    []netip.Addr
	wanderer netip.Addr
	wanderTo []netip.Addr
}

func newSlideFeed(f denseFixture, seed int64) *slideFeed {
	sf := &slideFeed{rng: rand.New(rand.NewSource(seed)), epoch: f.days[0], wanderer: isp.LineV4Addr(2, 77)}
	for a, bi := range f.infos {
		if bi.alias == "O1" {
			sf.wanderTo = append(sf.wanderTo, a)
		} else {
			sf.backends = append(sf.backends, a)
		}
	}
	slices.SortFunc(sf.backends, netip.Addr.Compare)
	slices.SortFunc(sf.wanderTo, netip.Addr.Compare)
	for i := 0; i < 16; i++ {
		sf.lines = append(sf.lines, isp.LineV4Addr(0, 100+i))
	}
	for i := 0; i < 8; i++ {
		sf.lines = append(sf.lines, isp.LineV6Addr(1, 200+i))
	}
	return sf
}

func (sf *slideFeed) record(line netip.Addr, h int64) netflow.Record {
	rng := sf.rng
	r := netflow.Record{
		Src: sf.backends[rng.Intn(len(sf.backends))], Dst: line,
		SrcPort: uint16(440 + rng.Intn(6)), DstPort: uint16(40000 + rng.Intn(100)),
		Bytes:   uint64(rng.Intn(200_000)),
		Packets: 1,
		Start:   sf.epoch.Add(time.Duration(h)*time.Hour + time.Duration(rng.Intn(3600))*time.Second),
	}
	if rng.Intn(6) == 0 {
		r.Bytes = 0
	}
	if rng.Intn(2) == 0 {
		r.Src, r.Dst = r.Dst, r.Src
		r.SrcPort, r.DstPort = r.DstPort, r.SrcPort
	}
	if rng.Intn(3) == 0 {
		r.Proto = netflow.ProtoUDP
	}
	return r
}

// hour returns one flush of hour h's records.
func (sf *slideFeed) hour(h int64) []netflow.Record {
	n := 8 + sf.rng.Intn(16)
	out := make([]netflow.Record, 0, n+8)
	for i := 0; i < n; i++ {
		out = append(out, sf.record(sf.lines[sf.rng.Intn(len(sf.lines))], h))
	}
	if sf.rng.Intn(3) == 0 {
		for i := 0; i < 6; i++ {
			out = append(out, sf.record(sf.lines[0], h))
		}
	}
	return out
}

// wander returns the wanderer's records for hour h: downstream and
// upstream, or upstream only.
func (sf *slideFeed) wander(h int64, down bool) []netflow.Record {
	var out []netflow.Record
	for i := 0; i < 3; i++ { // three backends at most: never a scanner
		r := netflow.Record{
			Src: sf.wanderer, Dst: sf.wanderTo[sf.rng.Intn(len(sf.wanderTo))],
			SrcPort: 50000, DstPort: 8883, Bytes: uint64(1000 + sf.rng.Intn(1000)), Packets: 1,
			Start: sf.epoch.Add(time.Duration(h) * time.Hour),
		}
		if down && i%2 == 0 {
			r.Src, r.Dst, r.SrcPort, r.DstPort = r.Dst, r.Src, r.DstPort, r.SrcPort
		}
		out = append(out, r)
	}
	return out
}

// slideStep is one step of a slide schedule: its flushes, then a read
// that must take the wanted fold path ("" reads nothing).
type slideStep struct {
	name    string
	flushes [][]netflow.Record
	want    string
}

// slideSchedule drives a window of the given span through every way
// its frame can move between two reads; the hour numbers are laid out
// for a 48-hour window. A jump between reads rebuilds when it moves the
// frame start slideReach or more hours, and slides otherwise.
func slideSchedule(sf *slideFeed, hours int64) []slideStep {
	var steps []slideStep
	jump := func(from, to int64) string {
		if max(0, to-hours+1)-max(0, from-hours+1) >= slideReach {
			return "rebuild"
		}
		return "slide"
	}
	hourly := func(from, to int64, want string) {
		for h := from; h <= to; h++ {
			fl := [][]netflow.Record{sf.hour(h)}
			if sf.rng.Intn(4) == 0 {
				fl = append(fl, sf.hour(h)) // the hour's rows split over two flushes
			}
			switch h {
			case 5, 170:
				fl = append(fl, sf.wander(h, true))
			case 63:
				fl = append(fl, sf.wander(h, false))
			case 180:
				// A port of its own, numbered after the wanderer's: the
				// wanderer's leaving renumbers it.
				r := sf.record(sf.lines[1], h)
				r.SrcPort, r.DstPort = 1883, 1883
				fl = append(fl, []netflow.Record{r})
			}
			steps = append(steps, slideStep{name: "hour", flushes: fl, want: want})
		}
	}
	// Pre-fill: the frame start is pinned at the epoch.
	steps = append(steps, slideStep{name: "first read", flushes: [][]netflow.Record{sf.hour(0)}, want: "rebuild"})
	hourly(1, 47, "slide")
	// Full: every hour slides by one. The wanderer leaves at 53.
	hourly(48, 60, "slide")
	steps = append(steps, slideStep{name: "slide 2", flushes: [][]netflow.Record{sf.hour(62)}, want: "slide"})
	hourly(63, 63, "slide") // the wanderer comes back
	steps = append(steps, slideStep{name: "slide 23", flushes: [][]netflow.Record{sf.hour(86)}, want: "slide"})
	steps = append(steps, slideStep{name: "late rows", flushes: [][]netflow.Record{sf.hour(70)}, want: "rebuild"})
	hourly(87, 88, "slide")
	// Late rows into the oldest hour, which the next read retires.
	steps = append(steps, slideStep{name: "late rows in a leaving hour", flushes: [][]netflow.Record{sf.hour(41), sf.hour(89)}, want: "rebuild"})
	// A flush into a sealed in-frame hour that then jumps a lap ahead
	// recycles its own in-flush bucket, which the fold holds.
	steps = append(steps, slideStep{name: "recycled in-flush bucket", flushes: [][]netflow.Record{append(sf.hour(50), sf.hour(98)...)}, want: "rebuild"})
	hourly(99, 101, "slide")
	steps = append(steps, slideStep{name: "jump 30", flushes: [][]netflow.Record{sf.hour(131)}, want: jump(101, 131)})
	hourly(132, 133, "slide")
	// Thirty-five hours with nobody reading.
	hourly(134, 167, "")
	steps = append(steps, slideStep{name: "read gap", flushes: [][]netflow.Record{sf.hour(168)}, want: jump(133, 168)})
	hourly(169, 230, "slide")
	return steps
}

// checkSlideRead reads win through the cache and checks the fold path
// taken and the result against a rebuild of the same frame.
func checkSlideRead(t *testing.T, win *Window, step string, want string) {
	t.Helper()
	before := win.FoldStats()
	cc, col := win.Merged()
	after := win.FoldStats()
	got := ""
	switch {
	case after.Slides == before.Slides+1 && after.Rebuilds == before.Rebuilds && after.Hits == before.Hits:
		got = "slide"
	case after.Rebuilds == before.Rebuilds+1 && after.Slides == before.Slides && after.Hits == before.Hits:
		got = "rebuild"
	}
	if got != want {
		t.Fatalf("%s (end %d): fold path %+v → %+v, want one %s", step, win.End(), before, after, want)
	}
	_, st := win.Study()
	if win.FoldStats().Hits != after.Hits+1 {
		t.Fatalf("%s: Study after Merged did not hit the fold cache", step)
	}

	refCC, refCol := win.rebuiltFold()
	ref := refCol.Study()
	refNamed := named(ref)
	if !reflect.DeepEqual(named(col.Study()), refNamed) {
		t.Fatalf("%s (end %d): Merged study differs from a rebuild", step, win.End())
	}
	if !reflect.DeepEqual(named(st), refNamed) {
		t.Fatalf("%s (end %d): Study differs from a rebuild", step, win.End())
	}
	if !reflect.DeepEqual(st.TopPorts(64), ref.TopPorts(64)) {
		t.Fatalf("%s (end %d): port table differs from a rebuild", step, win.End())
	}
	if !reflect.DeepEqual(col.coverBits, refCol.coverBits) {
		t.Fatalf("%s (end %d): hour coverage differs from a rebuild", step, win.End())
	}
	if !reflect.DeepEqual(cc.contactSets(), refCC.contactSets()) {
		t.Fatalf("%s (end %d): contact sets differ from a rebuild", step, win.End())
	}
	if !reflect.DeepEqual(cc.Scanners(3), refCC.Scanners(3)) || !reflect.DeepEqual(cc.Curve(windowThresholds), refCC.Curve(windowThresholds)) {
		t.Fatalf("%s (end %d): scanners or curve differ from a rebuild", step, win.End())
	}
}

// TestWindowSlideMatchesRebuild: a fold slid hour by hour equals a fold
// rebuilt from the surviving rows on every comparison surface, through
// slides of 1, 2 and 23 hours, hours some shard got no rows in, late
// rows, a flush recycling its own bucket, long jumps, a read gap, a line
// that leaves the frame and comes back, and a snapshot restored midway.
// The fold-path counts pin which reads slide and which rebuild. The
// 48-hour window keeps each hour bitset in one word; the 168-hour one,
// the daemon's whole-study default, spans three, so its slides carry
// bits across words.
func TestWindowSlideMatchesRebuild(t *testing.T) {
	for _, c := range []struct {
		hours  int64
		shards int
	}{{48, 1}, {48, 3}, {168, 1}} {
		shards := c.shards
		cell := fmt.Sprintf("%d hours, %d shards", c.hours, shards)
		f := buildDenseFixture(41)
		opts := f.opts
		opts.ScannerThreshold = 3
		win, err := NewWindow(f.idx, f.days[0], int(c.hours), opts)
		if err != nil {
			t.Fatal(err)
		}
		win.setShards(shards)
		sf := newSlideFeed(f, int64(shards))
		for _, step := range slideSchedule(sf, c.hours) {
			for _, fl := range step.flushes {
				flushRecords(win, fl)
			}
			for si, sh := range win.shards {
				if len(sh.retired) > slideReach {
					t.Fatalf("%s, %s: shard %d parks %d retired buckets", cell, step.name, si, len(sh.retired))
				}
			}
			if step.want != "" {
				checkSlideRead(t, win, cell+", "+step.name, step.want)
			}
		}
		if st := win.Stats(); st.EvictedHours == 0 || st.LateRecords != 0 {
			t.Fatalf("%s: schedule stats %+v, want evictions and no late rows", cell, st)
		}

		// Restore a snapshot and keep sliding the restored window.
		var buf bytes.Buffer
		if err := Snapshot(&buf, win); err != nil {
			t.Fatal(err)
		}
		restored, err := Restore(&buf, f.idx, opts)
		if err != nil {
			t.Fatal(err)
		}
		for h := int64(231); h <= 235; h++ {
			flushRecords(restored, sf.hour(h))
			want := "slide"
			if h == 231 {
				want = "rebuild"
			}
			checkSlideRead(t, restored, cell+", restored", want)
		}
	}

	t.Run("departed lines", func(t *testing.T) {
		// Lines that left the frame leave the cached fold too: replacing
		// every line never forces a rebuild, and the fold ends holding
		// only the new ones.
		f := buildDenseFixture(47)
		opts := f.opts
		opts.ScannerThreshold = 3
		win, err := NewWindow(f.idx, f.days[0], 48, opts)
		if err != nil {
			t.Fatal(err)
		}
		sf := newSlideFeed(f, 47)
		for h := int64(0); h < 150; h++ {
			if h == 48 {
				sf.lines = sf.lines[:0]
				for i := 0; i < 8; i++ {
					sf.lines = append(sf.lines, isp.LineV4Addr(3, i))
				}
			}
			flushRecords(win, sf.hour(h))
			win.Merged()
		}
		if fs := win.FoldStats(); fs.Rebuilds != 1 {
			t.Fatalf("24 lines replaced by 8: fold %+v, want the first read's rebuild only", fs)
		}
		if n, m := len(win.stable.cc.lines.addrs), len(win.stable.col.lines.addrs); n > 8 || m > 8 {
			t.Fatalf("cached fold holds %d counter and %d collector lines, want at most the 8 live ones", n, m)
		}
		flushRecords(win, sf.hour(150))
		checkSlideRead(t, win, "after departed lines", "slide")
	})

	t.Run("concurrent readers", func(t *testing.T) {
		f := buildDenseFixture(43)
		opts := f.opts
		opts.ScannerThreshold = 3
		win, err := NewWindow(f.idx, f.days[0], 48, opts)
		if err != nil {
			t.Fatal(err)
		}
		sf := newSlideFeed(f, 43)
		reads := func() uint64 { fs := win.FoldStats(); return fs.Hits + fs.Slides + fs.Rebuilds }
		stop := make(chan struct{})
		var readers sync.WaitGroup
		for r := 0; r < 2; r++ {
			readers.Add(1)
			go func(r int) {
				defer readers.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					if r == 0 {
						win.Merged()
					} else {
						_, s := win.Study()
						_ = readStudy(s)
					}
				}
			}(r)
		}
		for h := int64(0); h < 120; h++ {
			flushRecords(win, sf.hour(h))
			// Let a reader see every hour, so the frame moves one hour
			// between reads.
			for n := reads(); reads() == n; {
				runtime.Gosched()
			}
		}
		close(stop)
		readers.Wait()
		if fs := win.FoldStats(); fs.Slides <= fs.Rebuilds {
			t.Errorf("hourly reads beside ingest: %+v, want more slides than rebuilds", fs)
		}
		flushRecords(win, sf.hour(120))
		checkSlideRead(t, win, "after concurrent reads", "slide")
	})
}

// BenchmarkWindowSlide is the daemon's read pattern: a 30-day
// hour-major feed through a 7-day window with one Merged() per hour
// once the window has filled. `slide` advances the cached fold; in
// `rebuild` the cache is marked stale before every read, so each read
// re-folds the whole frame. ns/read is the mean read latency.
func BenchmarkWindowSlide(b *testing.B) {
	days := make([]time.Time, 30)
	start := world.StudyDays()[0]
	for i := range days {
		days[i] = start.AddDate(0, 0, i)
	}
	w, err := world.Build(world.Config{Seed: 5, Scale: 0.02, Days: days})
	if err != nil {
		b.Fatal(err)
	}
	net, err := isp.NewNetwork(isp.Config{Seed: 5, Lines: 2000}, w)
	if err != nil {
		b.Fatal(err)
	}
	idx := NewBackendIndex()
	for _, s := range w.AllServers() {
		idx.Add(s.Addr, w.AliasOf(s.Provider), s.Region.Continent, s.Region.Region, s.Class.CertVisible())
	}
	hourly := make([][]netflow.Record, len(days)*24)
	for day := range days {
		net.SimulateDay(day, func(r netflow.Record) {
			if h := int(r.Start.Sub(days[0]) / time.Hour); h >= 0 && h < len(hourly) {
				hourly[h] = append(hourly[h], r)
			}
		})
	}
	opts := Options{ScannerThreshold: 100, SamplingRate: 100}
	const windowHours = 7 * 24
	for _, mode := range []string{"slide", "rebuild"} {
		b.Run(mode, func(b *testing.B) {
			var reads int
			var readTime time.Duration
			for i := 0; i < b.N; i++ {
				win, err := NewWindow(idx, days[0], windowHours, opts)
				if err != nil {
					b.Fatal(err)
				}
				tables := win.NewWireTables()
				var batch netflow.RecordBatch
				for h, recs := range hourly {
					batch.Reset()
					for _, r := range recs {
						tables.AppendRecord(&batch, r)
					}
					win.IngestBatch(tables, &batch)
					if h < windowHours {
						continue
					}
					if mode == "rebuild" {
						win.foldStale.Store(true)
					}
					t0 := time.Now()
					win.Merged()
					readTime += time.Since(t0)
					reads++
				}
			}
			b.ReportMetric(float64(readTime.Nanoseconds())/float64(reads), "ns/read")
		})
	}
}
