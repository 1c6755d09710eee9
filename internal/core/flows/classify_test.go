package flows

import (
	"math/rand"
	"net/netip"
	"reflect"
	"testing"
	"time"

	"iotmap/internal/geo"
	"iotmap/internal/isp"
	"iotmap/internal/netflow"
)

// oracleClassifyFlush is the classifier before light lines stopped
// pooling evidence, kept as the oracle: every line with an indexed row
// in the flush gets a full backend bitset, and its verdict is that
// bitset's popcount over threshold. touched lists
// the lines in first-appearance order; slot maps a line to its entry
// (index+1 into ents).
func oracleClassifyFlush(t *WireTables, b *netflow.RecordBatch, threshold int) (touched []int32, ents []endEnt, slot []int32) {
	slot = make([]int32, len(t.lines))
	words := t.idx.words
	for i, bid := range b.Backend {
		be := t.backends[bid]
		if be < 0 {
			continue
		}
		li := b.Line[i]
		e := slot[li]
		if e == 0 {
			ents = appendEnt(ents, words)
			e = int32(len(ents))
			slot[li] = e
			touched = append(touched, int32(li))
		}
		setBit(ents[e-1].bits, int(be))
	}
	for _, li := range touched {
		ent := &ents[slot[li]-1]
		ent.over = popcount(ent.bits) > threshold
	}
	return touched, ents, slot
}

// oracleKept is the rows IngestBatch's Collector receives under the
// oracle's verdicts: kept lines' rows with an indexed backend and an
// in-window hour, backend column dense.
func oracleKept(t *WireTables, b *netflow.RecordBatch, ents []endEnt, slot []int32, hours int) netflow.RecordBatch {
	var out netflow.RecordBatch
	for i, bid := range b.Backend {
		be := t.backends[bid]
		if be < 0 || ents[slot[b.Line[i]]-1].over {
			continue
		}
		if h := b.Hour[i]; h >= 0 && int(h) < hours {
			out.Append(b.Line[i], uint32(be), b.Down[i], h, b.Port[i], b.Proto[i], b.Bytes[i], b.Packets[i])
		}
	}
	return out
}

// classifyFixture is a small index and a dictionary shaped like a
// damaged stream's: a lost line range, unknown backend entries and a
// lost backend range.
type classifyFixture struct {
	idx   *BackendIndex
	days  []time.Time
	lines []netip.Addr // line dictionary addresses, IDs from lineBase
	backs []netip.Addr // indexed backends
}

// lineBase is where the fixture's line dictionary starts: IDs below it
// are lost entries no row may reference.
const lineBase = 3

func buildClassifyFixture(seed int64) *classifyFixture {
	rng := rand.New(rand.NewSource(seed))
	f := &classifyFixture{idx: NewBackendIndex()}
	aliases := []string{"T1", "T2", "D3"}
	for i := 0; i < 64; i++ {
		a := netip.AddrFrom4([4]byte{byte(20 + i%8), byte(rng.Intn(256)), byte(i), 1})
		f.idx.Add(a, aliases[i%len(aliases)], geo.Europe, "eu-central-1", i%2 == 0)
		f.backs = append(f.backs, a)
	}
	f.idx.Build()
	for i := 0; i < 600; i++ {
		a := isp.LineV4Addr(0, i)
		if i%3 == 2 {
			a = isp.LineV6Addr(0, i)
		}
		f.lines = append(f.lines, a)
	}
	start := time.Date(2022, 2, 28, 0, 0, 0, 0, time.UTC)
	for d := 0; d < 3; d++ {
		f.days = append(f.days, start.AddDate(0, 0, d))
	}
	return f
}

// partial returns a fresh partial at threshold (≤ 0 disables it).
func (f *classifyFixture) partial(threshold int) *ShardPartial {
	return NewShardPartial(f.idx, f.days, Options{ScannerThreshold: threshold, SamplingRate: 7})
}

// tables returns p's dictionary tables: the lines after lineBase lost
// entries, the backends in a shuffled order with two unknown addresses
// mixed in and a lost range between the two halves.
func (f *classifyFixture) tables(t *testing.T, p *ShardPartial) *WireTables {
	t.Helper()
	wt := p.NewWireTables()
	if err := wt.AddLines(lineBase, f.lines); err != nil {
		t.Fatal(err)
	}
	backs := append([]netip.Addr{netip.MustParseAddr("198.51.100.1")}, f.backs[:32]...)
	backs = append(backs, netip.MustParseAddr("2001:db8::9"))
	if err := wt.AddBackends(0, backs); err != nil {
		t.Fatal(err)
	}
	if err := wt.AddBackends(uint32(len(backs)+2), f.backs[32:]); err != nil {
		t.Fatal(err)
	}
	return wt
}

// lineShape is one line's rows in a generated flush.
type lineShape struct {
	line int // index into the fixture's lines
	rows int
	// distinct caps the indexed backends the rows draw from (0: any
	// dictionary entry, unknown and lost ones included).
	distinct int
}

// genFlush makes one flush of the shaped lines' rows in an interleaved
// order, a tenth of them outside the study hours.
func (f *classifyFixture) genFlush(rng *rand.Rand, wt *WireTables, shapes []lineShape) *netflow.RecordBatch {
	var indexed []uint32
	for id, be := range wt.backends {
		if be >= 0 {
			indexed = append(indexed, uint32(id))
		}
	}
	type row struct{ line, backend uint32 }
	var rows []row
	for _, s := range shapes {
		pool := indexed
		if s.distinct > 0 {
			off := rng.Intn(len(indexed) - s.distinct + 1)
			pool = indexed[off : off+s.distinct]
		}
		for r := 0; r < s.rows; r++ {
			var bid uint32
			if s.distinct > 0 {
				bid = pool[r%len(pool)]
			} else {
				bid = uint32(rng.Intn(len(wt.backends)))
			}
			rows = append(rows, row{uint32(lineBase + s.line), bid})
		}
	}
	rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
	hours := len(f.days) * 24
	b := &netflow.RecordBatch{}
	for _, r := range rows {
		h := int32(rng.Intn(hours))
		switch rng.Intn(20) {
		case 0:
			h = -1
		case 1:
			h = int32(hours + rng.Intn(48))
		}
		b.Append(r.line, r.backend, rng.Intn(2) == 0, h, uint16(rng.Intn(3)*443), uint8(6+11*rng.Intn(2)), uint64(1+rng.Intn(5000)), uint64(1+rng.Intn(9)))
	}
	return b
}

// randomShapes draws n distinct lines with row counts around threshold.
func randomShapes(rng *rand.Rand, f *classifyFixture, n, threshold int) []lineShape {
	out := make([]lineShape, 0, n)
	for _, li := range rng.Perm(len(f.lines))[:n] {
		s := lineShape{line: li}
		switch rng.Intn(6) {
		case 0:
			s.rows = 1 + rng.Intn(3)
		case 1:
			s.rows = threshold
		case 2:
			s.rows, s.distinct = threshold+1, threshold
		case 3:
			s.rows, s.distinct = threshold+1+rng.Intn(4), threshold+1
		case 4:
			s.rows = 3 * threshold
		default:
			s.rows = 1 + rng.Intn(2*threshold)
		}
		out = append(out, s)
	}
	return out
}

// classifyCases are the flush shapes both classifier tests run.
func classifyCases() []struct {
	name      string
	threshold int
	shapes    func(rng *rand.Rand, f *classifyFixture) [][]lineShape
} {
	const th = 5
	one := func(s ...lineShape) func(*rand.Rand, *classifyFixture) [][]lineShape {
		return func(*rand.Rand, *classifyFixture) [][]lineShape { return [][]lineShape{s} }
	}
	return []struct {
		name      string
		threshold int
		shapes    func(rng *rand.Rand, f *classifyFixture) [][]lineShape
	}{
		{"rows-equal-threshold", th, one(lineShape{line: 1, rows: th, distinct: th})},
		{"heavy-by-rows-duplicate-backends", th, one(lineShape{line: 1, rows: th + 1, distinct: th}, lineShape{line: 2, rows: 4 * th, distinct: th})},
		{"heavy-and-over", th, one(lineShape{line: 1, rows: th + 1, distinct: th + 1}, lineShape{line: 2, rows: 2})},
		{"threshold-disabled", 0, one(lineShape{line: 1, rows: 200}, lineShape{line: 7, rows: 3}, lineShape{line: 9, rows: 1})},
		{"unknown-and-lost-entries", th, one(lineShape{line: 4, rows: 3 * th}, lineShape{line: 5, rows: th + 2})},
		{"one-line", th, func(rng *rand.Rand, f *classifyFixture) [][]lineShape {
			var out [][]lineShape
			for i := 0; i < 40; i++ {
				out = append(out, randomShapes(rng, f, 1, th))
			}
			return out
		}},
		{"hundreds-of-lines", th, func(rng *rand.Rand, f *classifyFixture) [][]lineShape {
			return [][]lineShape{randomShapes(rng, f, 400, th), randomShapes(rng, f, 300, th), randomShapes(rng, f, 500, th)}
		}},
		{"hundreds-of-lines-threshold-1", 1, func(rng *rand.Rand, f *classifyFixture) [][]lineShape {
			return [][]lineShape{randomShapes(rng, f, 300, 1), randomShapes(rng, f, 300, 1)}
		}},
	}
}

// TestClassifyFlushMatchesOracle: the light-line classifier gives every
// line the oracle's verdict, touches lines in the oracle's order, keeps
// the oracle's rows, and leaves the ContactCounter with the oracle's
// evidence, lines interned in first-appearance order.
func TestClassifyFlushMatchesOracle(t *testing.T) {
	f := buildClassifyFixture(29)
	for ci, tc := range classifyCases() {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(100 + ci)))
			p := f.partial(tc.threshold)
			wt := f.tables(t, p)
			hours := len(f.days) * 24
			want := map[netip.Addr][]uint64{}
			var wantOrder []netip.Addr
			for fi, shapes := range tc.shapes(rng, f) {
				b := f.genFlush(rng, wt, shapes)
				touched, oents, slot := oracleClassifyFlush(wt, b, p.threshold)
				for _, li := range touched {
					a := wt.lines[li].addr
					if want[a] == nil {
						want[a] = make([]uint64, f.idx.words)
						wantOrder = append(wantOrder, a)
					}
					orBits(want[a], oents[slot[li]-1].bits)
				}

				classifyFlush(wt, b, p.threshold)
				if !reflect.DeepEqual(wt.touched, touched) {
					t.Fatalf("flush %d: touched %v, oracle %v", fi, wt.touched, touched)
				}
				for _, li := range touched {
					if got, exp := wt.over(uint32(li)), oents[slot[li]-1].over; got != exp {
						t.Errorf("flush %d: line %v over=%v, oracle %v", fi, wt.lines[li].addr, got, exp)
					}
				}
				rows := map[uint32]int{}
				for i, bid := range b.Backend {
					if wt.backends[bid] >= 0 {
						rows[b.Line[i]]++
					}
				}
				heavy := 0
				for _, li := range touched {
					n := rows[uint32(li)]
					if wantHeavy := n > p.threshold; wantHeavy != (wt.entSlot[li] < 0) {
						t.Errorf("flush %d: line %v with %d indexed rows: evidence entry %v, want %v", fi, wt.lines[li].addr, n, !wantHeavy, wantHeavy)
					}
					if wt.entSlot[li] < 0 {
						heavy++
					}
				}
				if heavy != len(wt.ents) {
					t.Fatalf("flush %d: %d evidence entries for %d heavy lines", fi, len(wt.ents), heavy)
				}
				wt.releaseEnts()
				for li, n := range wt.entSlot {
					if n != 0 {
						t.Fatalf("flush %d: entSlot[%d] = %d after release", fi, li, n)
					}
				}

				wantKept := oracleKept(wt, b, oents, slot, hours)
				kept := *b
				p.Classify(wt, &kept)
				if kept.Len() != wantKept.Len() || (kept.Len() > 0 && !reflect.DeepEqual(kept, wantKept)) {
					t.Fatalf("flush %d: kept %d rows, oracle %d", fi, kept.Len(), wantKept.Len())
				}
			}
			if !reflect.DeepEqual(p.cc.lines.addrs, wantOrder) {
				t.Fatalf("ContactCounter interned %d lines %v, oracle order %v", len(p.cc.lines.addrs), p.cc.lines.addrs, wantOrder)
			}
			for i, a := range wantOrder {
				if !reflect.DeepEqual(p.cc.lineBits(i), want[a]) {
					t.Errorf("line %v: contact bits differ from the oracle's", a)
				}
			}
		})
	}
}

// TestClassifySplitMatchesIngestBatch: folding flushes through
// IngestBatch, and through Classify on the producer's tables with
// FoldKept on their fold side (the collector's split), gives equal
// aggregates — dictionary rows and AppendRecord rows alike — and
// IngestBatch leaves its batch as it found it.
func TestClassifySplitMatchesIngestBatch(t *testing.T) {
	f := buildClassifyFixture(41)
	for ci, tc := range classifyCases() {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(700 + ci)))
			whole, split := f.partial(tc.threshold), f.partial(tc.threshold)
			wtWhole, wtSplit := f.tables(t, whole), f.tables(t, split)
			recWhole, recSplit := whole.NewWireTables(), split.NewWireTables()
			for fi, shapes := range tc.shapes(rng, f) {
				b := f.genFlush(rng, wtWhole, shapes)
				before := cloneBatch(b)
				whole.IngestBatch(wtWhole, b)
				if !reflect.DeepEqual(b, before) {
					t.Fatalf("flush %d: IngestBatch rewrote its batch", fi)
				}
				rows := cloneBatch(b)
				split.Classify(wtSplit, rows)
				split.FoldKept(wtSplit.View().Tables(), rows)

				// The same flush as records through AppendRecord.
				var rbWhole, rbSplit netflow.RecordBatch
				for _, r := range f.records(wtWhole, b) {
					recWhole.AppendRecord(&rbWhole, r)
					recSplit.AppendRecord(&rbSplit, r)
				}
				whole.IngestBatch(recWhole, &rbWhole)
				split.Classify(recSplit, &rbSplit)
				split.FoldKept(recSplit.View().Tables(), &rbSplit)
			}
			if !reflect.DeepEqual(whole.cc.lines.addrs, split.cc.lines.addrs) {
				t.Fatal("ContactCounter line order differs between IngestBatch and the split")
			}
			if !reflect.DeepEqual(whole.cc.contactSets(), split.cc.contactSets()) {
				t.Fatal("contact sets differ between IngestBatch and the split")
			}
			if !reflect.DeepEqual(named(whole.col.Study()), named(split.col.Study())) {
				t.Fatal("studies differ between IngestBatch and the split")
			}
		})
	}
}

// records turns a dictionary flush into the flow records it stands for.
func (f *classifyFixture) records(wt *WireTables, b *netflow.RecordBatch) []netflow.Record {
	var out []netflow.Record
	unknown := netip.MustParseAddr("192.0.2.77")
	for i := range b.Line {
		line := wt.lines[b.Line[i]].addr
		back := unknown
		if be := wt.backends[b.Backend[i]]; be >= 0 {
			back = f.idx.addrs[be]
		}
		r := netflow.Record{Src: line, Dst: back, DstPort: b.Port[i], Proto: b.Proto[i], Bytes: b.Bytes[i], Packets: b.Packets[i],
			Start: f.days[0].Add(time.Duration(b.Hour[i])*time.Hour + 90*time.Second)}
		if b.Down[i] {
			r.Src, r.Dst, r.SrcPort, r.DstPort = back, line, b.Port[i], 0
		}
		out = append(out, r)
	}
	return out
}

func cloneBatch(b *netflow.RecordBatch) *netflow.RecordBatch {
	out := &netflow.RecordBatch{}
	for i := range b.Line {
		out.Append(b.Line[i], b.Backend[i], b.Down[i], b.Hour[i], b.Port[i], b.Proto[i], b.Bytes[i], b.Packets[i])
	}
	return out
}
