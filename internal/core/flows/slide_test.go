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

// rebuiltFold folds every row of the current frame from scratch,
// hour-major and bucket by bucket, without touching the window's fold
// cache or the buckets' folded marks: the oracle of the slide, the
// catch-up of rows that arrived since a read, and the line-ordered
// rebuild a cold read takes.
func (w *Window) rebuiltFold() (*ContactCounter, *Collector) {
	w.foldMu.Lock()
	defer w.foldMu.Unlock()
	w.mu.Lock()
	defer w.mu.Unlock()
	end := w.endA.Load() + 1
	ws := w.startHour(end - 1)
	f := w.newFoldFrame(ws, end)
	w.eachBucket(ws, end, func(bk *winBucket) { w.foldBucketInto(f, bk, 0) })
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
// its frame can move between two reads, and rows that land in it while
// it stands still; the hour numbers are laid out for a 48-hour window.
// A jump between reads rebuilds when it moves the frame start
// slideReach or more hours, and slides otherwise; a frame that did not
// move hits, whatever rows arrived.
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
	// The frame stands still while rows arrive.
	steps = append(steps, slideStep{name: "rows in the newest hour", flushes: [][]netflow.Record{sf.hour(86)}, want: "hit"})
	steps = append(steps, slideStep{name: "late rows", flushes: [][]netflow.Record{sf.hour(70)}, want: "hit"})
	steps = append(steps, slideStep{name: "rows in an in-frame and the newest hour", flushes: [][]netflow.Record{sf.hour(75), sf.hour(86)}, want: "hit"})
	hourly(87, 88, "slide")
	// Late rows into the oldest hour, which the next read retires.
	steps = append(steps, slideStep{name: "late rows in a leaving hour", flushes: [][]netflow.Record{sf.hour(41), sf.hour(89)}, want: "slide"})
	// A flush into a sealed in-frame hour that then moves the frame past
	// it: the rows it added there are evicted, never folded.
	steps = append(steps, slideStep{name: "flush past its own hour", flushes: [][]netflow.Record{append(sf.hour(50), sf.hour(98)...)}, want: "slide"})
	hourly(99, 101, "slide")
	steps = append(steps, slideStep{name: "jump 30", flushes: [][]netflow.Record{sf.hour(131)}, want: jump(101, 131)})
	hourly(132, 133, "slide")
	// Thirty-five hours with nobody reading.
	hourly(134, 167, "")
	steps = append(steps, slideStep{name: "read gap", flushes: [][]netflow.Record{sf.hour(168)}, want: jump(133, 168)})
	hourly(169, 230, "slide")
	// Thirty more hours with nobody reading, over a frame whose every hour
	// has rows at 48 hours: the ring keeps only the last day of the hours
	// the frame left.
	hourly(231, 259, "")
	steps = append(steps, slideStep{name: "read gap over a full frame", flushes: [][]netflow.Record{sf.hour(260)}, want: jump(230, 260)})
	// Late rows into the frame's oldest hour, then the next hour in three
	// flushes: the frame leaves the hour whose bucket took the late rows,
	// and the slide subtracts it from its ring slot.
	last := int64(261)
	steps = append(steps, slideStep{name: "late rows, then the hour that retires them", flushes: [][]netflow.Record{
		sf.hour(last - hours), sf.hour(last), sf.hour(last), sf.hour(last),
	}, want: "slide"})
	// The same into the next oldest hour, read once, then a jump of a
	// day: the rebuild finds buckets below the frame in the ring, at any
	// window length.
	steps = append(steps, slideStep{name: "late rows in the oldest hour", flushes: [][]netflow.Record{sf.hour(last + 1 - hours)}, want: "hit"})
	steps = append(steps, slideStep{name: "retiring hour, then a day's jump", flushes: [][]netflow.Record{
		sf.hour(last + 1), sf.hour(last + 1), sf.hour(last + 1), sf.hour(slideScheduleEnd),
	}, want: "rebuild"})
	return steps
}

// slideScheduleEnd is the last hour slideSchedule feeds.
const slideScheduleEnd = 262 + slideReach

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
	case after.Hits == before.Hits+1 && after.Slides == before.Slides && after.Rebuilds == before.Rebuilds:
		got = "hit"
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

	// View lends the fold Merged and Study lent, and copies nothing.
	before = win.FoldStats()
	wantStart, wantEnd := win.Span()
	win.View(func(vcc *ContactCounter, vcol *Collector, start, end time.Time) {
		if !start.Equal(wantStart) || !end.Equal(wantEnd) {
			t.Fatalf("%s: View frame %v–%v, want %v–%v", step, start, end, wantStart, wantEnd)
		}
		if !reflect.DeepEqual(named(vcol.Study()), refNamed) {
			t.Fatalf("%s (end %d): View study differs from a rebuild", step, win.End())
		}
		if !reflect.DeepEqual(vcc.contactSets(), refCC.contactSets()) {
			t.Fatalf("%s (end %d): View contact sets differ from a rebuild", step, win.End())
		}
	})
	if after := win.FoldStats(); after.Hits != before.Hits+1 || after.Copies != before.Copies {
		t.Fatalf("%s: View fold path %+v → %+v, want one hit and no copy", step, before, after)
	}
}

// TestWindowSlideMatchesRebuild: every read, slid, caught up or rebuilt
// line by line, lent by Merged, Study and View, equals the
// hour-major fold of the surviving rows (rebuiltFold) on every
// comparison surface, through slides of 1, 2 and 23 hours, rows into
// the newest and into older in-frame hours between reads of an unmoved
// frame, late rows in a leaving hour, a flush recycling its own bucket,
// long jumps, read gaps, a line that leaves the frame and comes back,
// and a snapshot restored midway. The
// fold-path counts pin which reads hit, slide and rebuild, and every
// cell rebuilds at least once while the ring holds buckets below the
// frame. The 48-hour window keeps each hour bitset in one word; the
// 168-hour one, the daemon's whole-study default, spans three, so its
// slides carry bits across words.
func TestWindowSlideMatchesRebuild(t *testing.T) {
	for _, hours := range []int64{48, 168} {
		cell := fmt.Sprintf("%d hours", hours)
		f := buildDenseFixture(41)
		opts := f.opts
		opts.ScannerThreshold = 3
		win, err := NewWindow(f.idx, f.days[0], int(hours), opts)
		if err != nil {
			t.Fatal(err)
		}
		sf := newSlideFeed(f, 1)
		belowRebuilds := 0
		for _, step := range slideSchedule(sf, hours) {
			for _, fl := range step.flushes {
				flushRecords(win, fl)
			}
			below := 0
			ws := win.startHour(win.End())
			for _, bk := range win.ring {
				if bk != nil && bk.ah < ws {
					below++
				}
			}
			if step.want == "rebuild" && below > 0 {
				belowRebuilds++
			}
			if step.want != "" {
				checkSlideRead(t, win, cell+", "+step.name, step.want)
			}
		}
		if st := win.Stats(); st.EvictedHours == 0 || st.LateRecords != 0 {
			t.Fatalf("%s: schedule stats %+v, want evictions and no late rows", cell, st)
		}
		if belowRebuilds == 0 {
			t.Fatalf("%s: no rebuild read found a bucket below the frame", cell)
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
		for h := int64(slideScheduleEnd + 1); h <= slideScheduleEnd+5; h++ {
			flushRecords(restored, sf.hour(h))
			if h == slideScheduleEnd+2 {
				// Late rows the first slide after the rebuild must not
				// count before it folds them.
				flushRecords(restored, sf.hour(h-10))
			}
			want := "slide"
			if h == slideScheduleEnd+1 {
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

	t.Run("recycled in-flush bucket", func(t *testing.T) {
		// A flush into an in-frame hour that jumps a ring lap ahead
		// reclaims its own in-flush bucket, which the fold holds: the
		// bucket's new rows are evicted, the next read rebuilds, and every
		// kept record is live, evicted or late, as a window that never
		// evicts counts it.
		f := buildDenseFixture(71)
		opts := f.opts
		opts.ScannerThreshold = 3
		win, err := NewWindow(f.idx, f.days[0], 48, opts)
		if err != nil {
			t.Fatal(err)
		}
		whole, err := NewWindow(f.idx, f.days[0], 240, opts)
		if err != nil {
			t.Fatal(err)
		}
		sf := newSlideFeed(f, 71)
		feed := func(recs []netflow.Record) {
			flushRecords(win, recs)
			flushRecords(whole, recs)
		}
		for h := int64(0); h < 60; h++ {
			feed(sf.hour(h))
			want := "slide"
			if h == 0 {
				want = "rebuild"
			}
			checkSlideRead(t, win, "hourly read", want)
		}
		feed(append(sf.hour(50), sf.hour(50+48+slideReach)...))
		checkSlideRead(t, win, "recycled in-flush bucket", "rebuild")
		live := func(w *Window) (n uint64) {
			for _, b := range w.BucketStats() {
				n += b.Records
			}
			return n
		}
		st := win.Stats()
		if got, want := live(win)+st.EvictedRecords+st.LateRecords, live(whole); got != want {
			t.Fatalf("live+evicted+late records %d (%+v), want the %d a window that never evicts holds", got, st, want)
		}
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
		for r := 0; r < 3; r++ {
			readers.Add(1)
			go func(r int) {
				defer readers.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					switch r {
					case 0:
						win.Merged()
					case 1:
						_, s := win.Study()
						_ = readStudy(s)
					default:
						win.View(func(_ *ContactCounter, col *Collector, _, _ time.Time) { _ = readStudy(col.Study()) })
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

// TestWindowViewLendsFrame: View lends the fold of the frame it brought
// current, with that frame's bounds, while ingest runs beside it. Rows
// that advance the window and rows into an older in-frame hour land
// during the view without reaching the lent fold, which keeps equal to
// a rebuild of the frame before them; the next read folds them in and
// equals a rebuild again.
func TestWindowViewLendsFrame(t *testing.T) {
	f := buildDenseFixture(59)
	opts := f.opts
	opts.ScannerThreshold = 3
	win, err := NewWindow(f.idx, f.days[0], 48, opts)
	if err != nil {
		t.Fatal(err)
	}
	sf := newSlideFeed(f, 59)
	for h := int64(0); h < 60; h++ {
		flushRecords(win, sf.hour(h))
	}
	refCC, refCol := win.rebuiltFold()
	refNamed := named(refCol.Study())
	wantStart, wantEnd := win.Span()
	win.View(func(cc *ContactCounter, col *Collector, start, end time.Time) {
		flushRecords(win, sf.hour(60))
		flushRecords(win, sf.hour(45))
		if s, _ := win.Span(); s.Equal(wantStart) {
			t.Fatal("a flush during the view did not move the window")
		}
		if !start.Equal(wantStart) || !end.Equal(wantEnd) {
			t.Fatalf("View frame %v–%v, want the folded frame %v–%v", start, end, wantStart, wantEnd)
		}
		if !reflect.DeepEqual(named(col.Study()), refNamed) {
			t.Fatal("lent study differs from a rebuild of the folded frame")
		}
		if !reflect.DeepEqual(cc.contactSets(), refCC.contactSets()) {
			t.Fatal("lent contact sets differ from a rebuild of the folded frame")
		}
	})
	checkSlideRead(t, win, "after the view", "slide")
	if fs := win.FoldStats(); fs.Rebuilds != 1 {
		t.Fatalf("fold %+v, want the first read's rebuild only", fs)
	}
}

// copiedStudy is Study as it was before the window lent its fold: a
// private deep copy of the cached fold per call, finalized on its own.
// It is the oracle a lent study is held to.
func copiedStudy(w *Window) (cc *ContactCounter, st *Study) {
	w.View(func(vcc *ContactCounter, vcol *Collector, _, _ time.Time) {
		cc, st = vcc.clone(), vcol.clone().Study()
	})
	return cc, st
}

// TestWindowLendCopyOnWrite: Merged and Study lend the cached fold, and
// a lent fold never changes. Every study taken renders byte-identically
// to a private copy taken beside it (copiedStudy), before and after rows
// into an older in-frame hour, slides, a compaction, a rebuild and reads
// racing on an idle window. FoldStats.Copies counts exactly the reads
// that changed a lent fold: none for repeated reads of an idle window or
// for a rebuild, one for the first read after new rows.
func TestWindowLendCopyOnWrite(t *testing.T) {
	f := buildDenseFixture(53)
	opts := f.opts
	opts.ScannerThreshold = 3
	win, err := NewWindow(f.idx, f.days[0], 48, opts)
	if err != nil {
		t.Fatal(err)
	}
	sf := newSlideFeed(f, 53)
	for h := int64(0); h < 50; h++ {
		flushRecords(win, sf.hour(h))
		if h < 10 {
			flushRecords(win, sf.wander(h, true))
		}
	}

	type held struct {
		step     string
		cc       *ContactCounter
		col      *Collector
		st       *Study
		want     *namedStudy
		contacts map[netip.Addr]map[netip.Addr]struct{}
	}
	var holds []held
	lend := func(step string) {
		t.Helper()
		cc, st := win.Study()
		mcc, col := win.Merged()
		if mcc != cc {
			t.Fatalf("%s: Merged after Study lent another counter", step)
		}
		copyCC, copySt := copiedStudy(win)
		want, contacts := named(copySt), copyCC.contactSets()
		if !reflect.DeepEqual(named(st), want) || !reflect.DeepEqual(named(col.Study()), want) ||
			!reflect.DeepEqual(cc.contactSets(), contacts) {
			t.Fatalf("%s: lent fold differs from a private copy", step)
		}
		refCC, refCol := win.rebuiltFold()
		if !reflect.DeepEqual(named(refCol.Study()), want) || !reflect.DeepEqual(refCC.contactSets(), contacts) {
			t.Fatalf("%s: lent fold differs from a rebuild of its frame", step)
		}
		holds = append(holds, held{step, cc, col, st, want, contacts})
	}
	// check holds every lent study to what it rendered when lent, and
	// wants exactly `copies` copy-on-write copies so far.
	check := func(step string, copies uint64) {
		t.Helper()
		if got := win.FoldStats().Copies; got != copies {
			t.Fatalf("%s: %d copies, want %d", step, got, copies)
		}
		for _, h := range holds {
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("%s: the collector lent at %q accepts a merge", step, h.step)
					}
				}()
				h.col.Merge()
			}()
			if !reflect.DeepEqual(named(h.st), h.want) || !reflect.DeepEqual(named(h.col.Study()), h.want) {
				t.Fatalf("%s: the study lent at %q changed", step, h.step)
			}
			if !reflect.DeepEqual(h.cc.contactSets(), h.contacts) {
				t.Fatalf("%s: the contacts lent at %q changed", step, h.step)
			}
		}
	}

	lend("first read")
	for i := 0; i < 3; i++ {
		win.Study()
		win.Merged()
		win.View(func(_ *ContactCounter, col *Collector, _, _ time.Time) { col.Study() })
	}
	check("idle reads", 0)
	if fs := win.FoldStats(); fs.Rebuilds != 1 || fs.Slides != 0 {
		t.Fatalf("idle reads: fold %+v, want one rebuild and hits", fs)
	}

	// Rows into an older in-frame hour leave the frame where it is: the
	// next read folds them into a copy.
	flushRecords(win, sf.hour(40))
	check("rows past the folded mark, unread", 0)
	lend("caught up")
	check("caught up", 1)
	if fs := win.FoldStats(); fs.Slides != 0 {
		t.Fatalf("caught up: fold %+v, want no slide", fs)
	}

	// A View that changes a lent fold copies it too, once.
	flushRecords(win, sf.hour(50))
	win.View(func(*ContactCounter, *Collector, time.Time, time.Time) {})
	check("slid by View", 2)
	win.View(func(*ContactCounter, *Collector, time.Time, time.Time) {})
	lend("after View")
	check("after View", 2)

	// Hourly slides until the wanderer's hours leave the frame and the
	// slide compacts its alias, port and slots out of the fold.
	copies := uint64(2)
	for h := int64(51); win.FoldStats().Compactions == 0; h++ {
		if h > 60 {
			t.Fatal("no slide compacted the fold")
		}
		flushRecords(win, sf.hour(h))
		lend(fmt.Sprintf("slide to hour %d", h))
		copies++
		check(fmt.Sprintf("slide to hour %d", h), copies)
	}

	// A read a day or more ahead rebuilds, and the rebuild replaces the
	// lent fold without copying it.
	rebuilds := win.FoldStats().Rebuilds
	flushRecords(win, sf.hour(win.End()+slideReach+1))
	lend("rebuild")
	check("rebuild", copies)
	if got := win.FoldStats().Rebuilds; got != rebuilds+1 {
		t.Fatalf("rebuild: %d rebuilds, want %d", got, rebuilds+1)
	}

	// Readers racing on an idle window share one lent fold and write
	// nothing to it.
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for i := 0; i < 20; i++ {
				switch r {
				case 0:
					_, st := win.Study()
					_ = readStudy(st)
				case 1:
					_, col := win.Merged()
					_ = readStudy(col.Study())
				default:
					win.View(func(_ *ContactCounter, col *Collector, _, _ time.Time) { _ = readStudy(col.Study()) })
				}
			}
		}(r)
	}
	readers.Wait()
	check("concurrent idle reads", copies)
}

// TestWindowBucketBudget pins the bucket budget the runbook's regression
// signal watches. A 48-hour window is fed every hour for five days, and
// takes no bucket fresh after hour hours+slideReach. With a View after
// each hour it holds at most hours+1 buckets: the frame's, and the one a
// read released for the next hour. One that nobody reads holds at most
// hours+slideReach buckets.
func TestWindowBucketBudget(t *testing.T) {
	const hours = 48
	f := buildDenseFixture(67)
	opts := f.opts
	opts.ScannerThreshold = 3
	noop := func(*ContactCounter, *Collector, time.Time, time.Time) {}
	for _, read := range []bool{true, false} {
		budget := hours + slideReach
		if read {
			budget = hours + 1
		}
		win, err := NewWindow(f.idx, f.days[0], hours, opts)
		if err != nil {
			t.Fatal(err)
		}
		sf := newSlideFeed(f, 67)
		seen := map[*winBucket]bool{}
		taken := 0
		for h := int64(0); h < 5*24; h++ {
			flushRecords(win, sf.hour(h))
			if read {
				win.View(noop)
			}
			for _, bk := range append(slices.Clone(win.ring), win.free...) {
				if bk != nil {
					seen[bk] = true
				}
			}
			n := len(seen)
			if n > budget {
				t.Fatalf("read %v, hour %d: took %d buckets, want at most %d", read, h, n, budget)
			}
			if h > hours+slideReach && n > taken {
				t.Fatalf("read %v, hour %d: %d buckets taken, %d an hour earlier", read, h, n, taken)
			}
			taken = n
		}
	}
}

// TestWindowViewPanicReleasesLocks: a fold that panics inside View
// (here a write into a cached collector left finalized) releases the
// ingest lock and drops the half-folded cache, so ingest on another
// goroutine completes and the next read equals a rebuild of the frame.
func TestWindowViewPanicReleasesLocks(t *testing.T) {
	f := buildDenseFixture(61)
	opts := f.opts
	opts.ScannerThreshold = 3
	win, err := NewWindow(f.idx, f.days[0], 48, opts)
	if err != nil {
		t.Fatal(err)
	}
	sf := newSlideFeed(f, 61)
	for h := int64(0); h < 30; h++ {
		flushRecords(win, sf.hour(h))
	}
	noop := func(*ContactCounter, *Collector, time.Time, time.Time) {}
	win.View(noop)
	win.stable.col.finalized = true
	flushRecords(win, sf.hour(29))
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("View folded into a finalized collector without panicking")
			}
		}()
		win.View(noop)
	}()

	done := make(chan struct{})
	go func() {
		flushRecords(win, sf.hour(30))
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("ingest still blocked after a read panicked: the ingest lock stayed held")
	}
	refCC, refCol := win.rebuiltFold()
	win.View(func(cc *ContactCounter, col *Collector, _, _ time.Time) {
		if !reflect.DeepEqual(named(col.Study()), named(refCol.Study())) {
			t.Error("the read after the panic differs from a rebuild of the frame")
		}
		if !reflect.DeepEqual(cc.contactSets(), refCC.contactSets()) {
			t.Error("the contact sets after the panic differ from a rebuild of the frame")
		}
	})
}

// BenchmarkWindowSlide is the daemon's read pattern: a 30-day
// hour-major feed through a 7-day window with one read per hour once
// the window has filled. `slide` reads through Merged(), advancing the
// cached fold; in `rebuild` the cache is dropped before every Merged(),
// so each read re-folds the whole frame; `view` reads what /figures
// reads before it formats: View, then Study() and Figure 5's curve of
// the lent fold. ns/read is the mean read latency.
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
		idx.Add(s.Addr, w.AliasOf(s.Provider), s.Region.Continent, s.Region.Region, certVisible(s.Class))
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
	figure5 := []int{10, 20, 50, 100, 200, 500, 1000}
	for _, mode := range []string{"slide", "rebuild", "view"} {
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
						win.stable = nil
					}
					t0 := time.Now()
					if mode == "view" {
						win.View(func(cc *ContactCounter, col *Collector, _, _ time.Time) {
							studySink += float64(col.Study().Hours() + len(cc.Curve(figure5)))
						})
					} else {
						win.Merged()
					}
					readTime += time.Since(t0)
					reads++
				}
			}
			b.ReportMetric(float64(readTime.Nanoseconds())/float64(reads), "ns/read")
		})
	}
}

// lineMajorWeek is a line-major week (seed 11, 20 000 lines, one flush
// per line, as the simulator emits it) in a 7-day window, with the
// number of rows it routed.
func lineMajorWeek(b *testing.B) (win *Window, opts Options, rows int) {
	w, err := world.Build(world.Config{Seed: 11, Scale: 0.05})
	if err != nil {
		b.Fatal(err)
	}
	net, err := isp.NewNetwork(isp.Config{Seed: 11, Lines: 20000}, w)
	if err != nil {
		b.Fatal(err)
	}
	idx := NewBackendIndex()
	for _, s := range w.AllServers() {
		idx.Add(s.Addr, w.AliasOf(s.Provider), s.Region.Continent, s.Region.Region, certVisible(s.Class))
	}
	opts = studyOpts(net)
	win, err = NewWindow(idx, w.Days[0], len(w.Days)*24, opts)
	if err != nil {
		b.Fatal(err)
	}
	tables := win.NewWireTables()
	var batch netflow.RecordBatch
	net.SimulateLines(1,
		func(int) func(netflow.Record) { return func(r netflow.Record) { tables.AppendRecord(&batch, r) } },
		func(int, *isp.Line) { win.IngestBatch(tables, &batch); batch.Reset() },
	)
	win.eachBucket(0, win.End()+1, func(bk *winBucket) { rows += len(bk.line) })
	if rows == 0 {
		b.Fatal("simulated week routed no row")
	}
	return win, opts, rows
}

// BenchmarkWindowRebuild is a cold read of lineMajorWeek's window in
// isolation: Merged() with the cache dropped, so every read rebuilds
// the frame. ns/row is per row the read folds.
func BenchmarkWindowRebuild(b *testing.B) {
	win, _, rows := lineMajorWeek(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		win.stable = nil
		win.Merged()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(rows), "ns/row")
}

// BenchmarkWindowRestore restores a checkpoint of lineMajorWeek's
// window, decoding, checking and appending every row. ns/row is per row
// the checkpoint holds.
func BenchmarkWindowRestore(b *testing.B) {
	win, opts, rows := lineMajorWeek(b)
	data := snapshotBytes(b, win)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Restore(bytes.NewReader(data), win.idx, opts); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(rows), "ns/row")
}
