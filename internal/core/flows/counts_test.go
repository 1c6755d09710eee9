package flows

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"

	"iotmap/internal/isp"
	"iotmap/internal/netflow"
)

// hourCounts counts, per hour, the stride-hw hour bitsets of bits that
// have the hour's bit set, among the blocks keep selects (nil: every
// block): active-line counts recounted from the bits, the oracle of the
// counts the fold keeps current.
func hourCounts(bits []uint64, hw, hours int, keep func(block int) bool) []uint64 {
	counts := make([]uint64, hours)
	for i := 0; i+hw <= len(bits); i += hw {
		if keep == nil || keep(i/hw) {
			forEachBit(bits[i:i+hw], func(h int) { counts[h]++ })
		}
	}
	return counts
}

// checkCounts recounts what the fold keeps counted from the bits behind
// it: every alias's active-line series from its (line, alias) slots'
// hour bits, the focus series likewise (all of the focus alias's lines
// from its slots, the region's and Europe's from their per-line
// columns), and every counter line's distinct-backend count.
func checkCounts(t *testing.T, what string, cc *ContactCounter, col *Collector) {
	t.Helper()
	slots := make([]int, col.nAliases)
	for _, k := range col.laKeys {
		slots[k.alias]++
	}
	for a, got := range col.activeLines {
		if got == nil {
			if slots[a] > 0 {
				t.Fatalf("%s: alias %s has %d hour slots and no active-line series", what, col.idx.aliasNames[a], slots[a])
			}
			continue
		}
		want := hourCounts(col.laHours, col.hw, col.hours, func(s int) bool { return int(col.laKeys[s].alias) == a })
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: alias %s active lines\n got  %v\n want %v", what, col.idx.aliasNames[a], got, want)
		}
	}
	if col.focusAlias != "" {
		focus := func(s int) bool { return col.laKeys[s].alias == col.focusAliasID }
		all := make([]uint64, col.hours) // the focus alias's, when it has rows
		if a := col.focusAliasID; a >= 0 && col.activeLines[a] != nil {
			all = col.activeLines[a]
		}
		for _, f := range []struct {
			label string
			got   []uint64
			bits  []uint64
			keep  func(int) bool
		}{
			{": All lines", all, col.laHours, focus},
			{": region lines", col.focusLinesRegion, col.focusHoursRegion, nil},
			{": EU lines", col.focusLinesEU, col.focusHoursEU, nil},
		} {
			if want := hourCounts(f.bits, col.hw, col.hours, f.keep); !reflect.DeepEqual(f.got, want) {
				t.Fatalf("%s: focus%s\n got  %v\n want %v", what, f.label, f.got, want)
			}
		}
	}
	if len(cc.n) != len(cc.lines.addrs) {
		t.Fatalf("%s: %d contact counts for %d lines", what, len(cc.n), len(cc.lines.addrs))
	}
	for l, n := range cc.n {
		if want := popcount(cc.lineBits(l)); int(n) != want {
			t.Fatalf("%s: line %v counts %d contacts, its bitset holds %d", what, cc.lines.addrs[l], n, want)
		}
	}
}

// checkFoldRead reads win the way /figures does and checks the lent
// fold's counts against its bits, and its lines, slots and ports
// against a rebuild of the same frame: a slide must leave nothing
// emptied behind, whichever drop passes it ran.
func checkFoldRead(t *testing.T, win *Window, what string) {
	t.Helper()
	refCC, refCol := win.rebuiltFold()
	checkCounts(t, what+" (rebuilt)", refCC, refCol)
	win.View(func(cc *ContactCounter, col *Collector, _, _ time.Time) {
		checkCounts(t, what, cc, col)
		got := []int{len(cc.lines.addrs), len(col.lines.addrs), len(col.laKeys), len(col.lpKeys), len(col.ports.keys)}
		want := []int{len(refCC.lines.addrs), len(refCol.lines.addrs), len(refCol.laKeys), len(refCol.lpKeys), len(refCol.ports.keys)}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: fold holds [counter lines, lines, alias slots, port slots, ports] %v, a rebuild %v", what, got, want)
		}
	})
	if cnt := win.stable.cnt; cnt != nil && cnt.emptied != 0 {
		t.Fatalf("%s: a read left emptied %b uncompacted", what, cnt.emptied)
	}
	cc, col := win.Merged()
	checkCounts(t, what+" (Merged lend)", cc, col)
}

// TestFoldCountsMatchBits: the counts the fold keeps current (each
// alias's and focus series' active lines per hour, each line's
// distinct backends) equal a recount of the bits after every step of
// the slide schedule (slides, catch-ups, rebuilds, the restored leg)
// and after the batch two-pass drive at one shard and at several, which
// reach them through Merge. Every slide compacts exactly what a rebuild
// would not hold.
func TestFoldCountsMatchBits(t *testing.T) {
	for _, hours := range []int64{48, 168} {
		t.Run(fmt.Sprintf("%d hours", hours), func(t *testing.T) {
			f := buildDenseFixture(41)
			opts := f.opts
			opts.ScannerThreshold = 3
			win, err := NewWindow(f.idx, f.days[0], int(hours), opts)
			if err != nil {
				t.Fatal(err)
			}
			sf := newSlideFeed(f, 1)
			for _, step := range slideSchedule(sf, hours) {
				for _, fl := range step.flushes {
					flushRecords(win, fl)
				}
				if step.want != "" {
					checkFoldRead(t, win, step.name)
				}
			}
			if fs := win.FoldStats(); fs.Compactions == 0 || fs.Compactions > fs.Slides {
				t.Fatalf("fold %+v: want compactions on some slides and on no more than slid", fs)
			}

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
					flushRecords(restored, sf.hour(h-10))
				}
				checkFoldRead(t, restored, fmt.Sprintf("restored, hour %d", h))
			}
		})
	}

	t.Run("batch", func(t *testing.T) {
		w, refCC, refCol := twoPass(t)
		checkCounts(t, "two-pass reference", refCC, refCol)
		for _, shards := range []int{1, testShards} {
			cc, col := runPipeline(cachedNet, cachedIdx, w, shards)
			checkCounts(t, fmt.Sprintf("%d shards", shards), cc, col)
		}
	})
}

// TestWindowHourlyPollBudget: an hourly-polled window whose leaving
// hours empty no line, slot, port or alias direction (every line sends
// the same rows every hour) slides on every poll without compacting
// once, and a repeat read with no new rows is a hit that folds nothing.
func TestWindowHourlyPollBudget(t *testing.T) {
	f := buildDenseFixture(67)
	win, err := NewWindow(f.idx, f.days[0], 48, f.opts)
	if err != nil {
		t.Fatal(err)
	}
	hourRows := func(h int64) []netflow.Record {
		var recs []netflow.Record
		for l := 0; l < 12; l++ {
			line, be := isp.LineV4Addr(0, 300+l), f.idx.addrs[l%len(f.idx.addrs)]
			at := f.days[0].Add(time.Duration(h)*time.Hour + time.Minute)
			recs = append(recs,
				netflow.Record{Src: be, Dst: line, SrcPort: 443, DstPort: 40000, Bytes: 1500, Packets: 1, Start: at},
				netflow.Record{Src: line, Dst: be, SrcPort: 40000, DstPort: 443, Bytes: 300, Packets: 1, Start: at})
		}
		return recs
	}
	noop := func(*ContactCounter, *Collector, time.Time, time.Time) {}
	const hours = 120
	for h := int64(0); h < hours; h++ {
		flushRecords(win, hourRows(h))
		win.View(noop)
	}
	fs := win.FoldStats()
	if fs.Rebuilds != 1 || fs.Slides != hours-1 || fs.Compactions != 0 {
		t.Fatalf("%d hourly polls of rows that never empty: fold %+v, want 1 rebuild, %d slides and no compaction", hours, fs, hours-1)
	}

	cc, col := win.stable.cc.clone(), win.stable.col.clone()
	win.View(noop)
	after := win.FoldStats()
	if want := fs; after.Hits != want.Hits+1 || after.Slides != want.Slides || after.Rebuilds != want.Rebuilds || after.Compactions != 0 {
		t.Fatalf("repeat read with no new rows: fold %+v → %+v, want one hit", want, after)
	}
	if !reflect.DeepEqual(win.stable.cc.clone(), cc) || !reflect.DeepEqual(win.stable.col.clone(), col) {
		t.Fatal("a repeat read with no new rows changed the fold")
	}
	win.eachBucket(0, win.End()+1, func(bk *winBucket) {
		if bk.folded != len(bk.line) {
			t.Fatalf("hour %d: the fold holds %d of %d rows", bk.ah, bk.folded, len(bk.line))
		}
	})
}

// checkHourSlots checks that a fold keeps its hour bits in the (line,
// alias) slot table: exactly hw words a slot, one slot, indexed by
// laIdx, for each line and alias the line has a kept row with (up rows
// as well as down rows), and an hour bit set in every slot.
func checkHourSlots(t *testing.T, what string, col *Collector) {
	t.Helper()
	if got, want := len(col.laHours), len(col.laKeys)*col.hw; got != want {
		t.Fatalf("%s: %d hour-bit words, %d slots of %d words hold %d", what, got, len(col.laKeys), col.hw, want)
	}
	pairs := 0
	for l, addr := range col.lines.addrs {
		forEachBit(col.lineAliasBits[l*col.aw:(l+1)*col.aw], func(a int) {
			pairs++
			s := int(col.laIdx[l*col.nAliases+a]) - 1
			if s < 0 || col.laKeys[s] != (laKey{line: int32(l), alias: int32(a)}) {
				t.Fatalf("%s: line %v has kept rows with alias %s and no slot", what, addr, col.idx.aliasNames[a])
			}
			if popcount(col.laHours[s*col.hw:(s+1)*col.hw]) == 0 {
				t.Fatalf("%s: the slot of line %v, alias %s holds no hour", what, addr, col.idx.aliasNames[a])
			}
		})
	}
	if pairs != len(col.laKeys) {
		t.Fatalf("%s: %d slots for %d (line, alias) pairs with kept rows", what, len(col.laKeys), pairs)
	}
}

// TestHourBitsPerSlot: a fold keeps its hour bits per (line, alias)
// slot, not in per-line columns, and the active-line and focus series
// recount from the slot bits: after a batch fold, a three-shard merge,
// and every step of the slide schedule.
func TestHourBitsPerSlot(t *testing.T) {
	check := func(t *testing.T, what string, cc *ContactCounter, col *Collector) {
		t.Helper()
		checkHourSlots(t, what, col)
		checkCounts(t, what, cc, col)
	}
	t.Run("batch", func(t *testing.T) {
		w, _, _ := buildStudy(t)
		for _, shards := range []int{1, 3} {
			cc, col := runPipeline(cachedNet, cachedIdx, w, shards)
			check(t, fmt.Sprintf("%d shards", shards), cc, col)
		}
	})
	t.Run("slide", func(t *testing.T) {
		f := buildDenseFixture(41)
		opts := f.opts
		opts.ScannerThreshold = 3
		win, err := NewWindow(f.idx, f.days[0], 48, opts)
		if err != nil {
			t.Fatal(err)
		}
		sf := newSlideFeed(f, 3)
		for _, step := range slideSchedule(sf, 48) {
			for _, fl := range step.flushes {
				flushRecords(win, fl)
			}
			if step.want != "" {
				win.View(func(cc *ContactCounter, col *Collector, _, _ time.Time) { check(t, step.name, cc, col) })
			}
		}
	})
}
