package flows

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"net/netip"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"iotmap/internal/isp"
	"iotmap/internal/netflow"
)

func snapshotBytes(t testing.TB, w *Window) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Snapshot(&buf, w); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// fedWindow feeds the fixture's hour-aligned flushes [0, upto) into a
// fresh 48-hour window.
func fedWindow(t testing.TB, f denseFixture, opts Options, upto int) *Window {
	t.Helper()
	win, err := NewWindow(f.idx, f.days[0], 48, opts)
	if err != nil {
		t.Fatal(err)
	}
	flushes := hourFlushes(f.recs, f.days[0])
	if upto > len(flushes) {
		upto = len(flushes)
	}
	for _, flush := range flushes[:upto] {
		flushRecords(win, flush)
	}
	return win
}

// TestWindowSnapshotBytesPinned: a small seeded window built with every
// Options field set snapshots to the bytes earlier builds wrote for it
// (the sha256 below), options fingerprint included, so their
// checkpoints keep restoring. A change here is a format change: bump
// snapshotVersion instead of updating the constant.
func TestWindowSnapshotBytesPinned(t *testing.T) {
	f := buildDenseFixture(5)
	opts := Options{ScannerThreshold: 3, SamplingRate: 100, FocusAlias: "T1", FocusRegion: "us-east-1", Vantage: "isp-a"}
	data := snapshotBytes(t, fedWindow(t, f, opts, 1<<30))
	const want = "77b37b4e1521a72493c6267a225ace03062a4654d9b113f3a162967d539dec5d"
	if sum := sha256.Sum256(data); hex.EncodeToString(sum[:]) != want {
		t.Fatalf("window snapshot sha256 %x, want %s", sum, want)
	}
	if _, err := Restore(bytes.NewReader(data), f.idx, opts); err != nil {
		t.Fatalf("pinned snapshot does not restore: %v", err)
	}
}

// snapDoc is a hand-built IWIN v2 stream for the rejection tests.
type snapDoc struct {
	version uint16
	hours   uint32
	end     int64
	lines   []netip.Addr
	hourly  []snapDocHour
	tail    []byte
}

type snapDocHour struct {
	ah      int64
	records uint64
	// claim overrides the row count field when non-zero.
	claim uint32
	rows  []snapRow
}

// validSnapDoc is a small stream Restore accepts: two lines, two live
// hours of a 48-hour window ending at hour 50.
func validSnapDoc() snapDoc {
	return snapDoc{
		version: snapshotVersion,
		hours:   48,
		end:     50,
		lines:   []netip.Addr{isp.LineV4Addr(0, 7), isp.LineV6Addr(0, 7)},
		hourly: []snapDocHour{
			{ah: 10, records: 1, rows: []snapRow{
				{line: 0, backend: 1, port: 443, flags: rowKept | rowDown, bytes: 1200},
				{line: 1, backend: 2, port: 5683, flags: rowUDP, bytes: 0},
			}},
			{ah: 50, records: 2, rows: []snapRow{
				{line: 0, backend: 1, port: 443, flags: rowKept, bytes: 300},
				{line: 0, backend: 1, port: 443, flags: rowKept, bytes: 300},
			}},
		},
	}
}

// wideSnapDoc is validSnapDoc with hour 50 holding five kept rows whose
// volumes test the row escape at the given rate: (2^32-1)·rate, 3·2^32
// and maxVol, the largest volume a row holds, keep their volume, 42·rate
// and (2^32-2)·rate a counter.
func wideSnapDoc(rate float64) snapDoc {
	d := validSnapDoc()
	h := &d.hourly[1]
	h.rows = h.rows[:0]
	for _, v := range []float64{42 * rate, (1<<32 - 2) * rate, (1<<32 - 1) * rate, 3 << 32, maxVol} {
		h.rows = append(h.rows, snapRow{line: 0, backend: 1, port: 443, flags: rowKept, bytes: v})
	}
	slices.SortFunc(h.rows, cmpSnapRow)
	h.records = uint64(len(h.rows))
	return d
}

func (d snapDoc) encode(idx *BackendIndex, opts Options) []byte {
	var buf bytes.Buffer
	s := &snapWriter{w: &buf}
	s.write([]byte(snapshotMagic))
	s.u16(d.version)
	s.u64(idx.fingerprint())
	s.u64(optionsFingerprint(opts))
	s.u32(d.hours)
	s.i64(time.Date(2022, 2, 28, 0, 0, 0, 0, time.UTC).UnixNano())
	s.i64(d.end)
	for i := 0; i < 4; i++ {
		s.u64(uint64(i))
	}
	s.u32(uint32(len(d.lines)))
	for _, a := range d.lines {
		s.addr(a)
	}
	s.u32(uint32(len(d.hourly)))
	for _, h := range d.hourly {
		s.i64(h.ah)
		s.u64(h.records)
		if h.claim != 0 {
			s.u32(h.claim)
		} else {
			s.u32(uint32(len(h.rows)))
		}
		for _, r := range h.rows {
			s.u32(r.line)
			s.u32(r.backend)
			s.u16(r.port)
			s.u8(r.flags)
			s.u64(math.Float64bits(r.bytes))
		}
	}
	s.write(d.tail)
	return buf.Bytes()
}

// TestWindowRestoreRejects: every constraint the v2 decoder enforces,
// one broken stream each. The unbroken stream restores and re-snapshots
// to the same bytes, which also pins this file's encoder to Snapshot's.
func TestWindowRestoreRejects(t *testing.T) {
	f := buildDenseFixture(23)
	opts := f.opts
	valid := validSnapDoc().encode(f.idx, opts)
	win, err := Restore(bytes.NewReader(valid), f.idx, opts)
	if err != nil {
		t.Fatalf("valid stream refused: %v", err)
	}
	if !bytes.Equal(snapshotBytes(t, win), valid) {
		t.Fatal("valid stream does not re-snapshot byte-identically")
	}
	if got := win.BucketStats(); len(got) != 2 || got[0].Records != 1 || got[1].Records != 2 {
		t.Fatalf("restored bucket stats wrong: %+v", got)
	}

	cases := []struct {
		name  string
		wants string
		edit  func(d *snapDoc)
	}{
		{"old version", "IWIN version 1", func(d *snapDoc) { d.version = 1 }},
		{"window too long", "exceeds limit", func(d *snapDoc) { d.hours = 24 * (maxSnapshotHours/24 + 1) }},
		{"window not whole days", "multiple of 24", func(d *snapDoc) { d.hours = 47 }},
		{"newest hour below -1", "newest hour", func(d *snapDoc) { d.end = -2 }},
		{"newest hour past time.Duration", "newest hour", func(d *snapDoc) { d.end = math.MaxInt64 }},
		{"unsorted dictionary", "not strictly sorted", func(d *snapDoc) { d.lines[0], d.lines[1] = d.lines[1], d.lines[0] }},
		{"duplicate dictionary entry", "not strictly sorted", func(d *snapDoc) { d.lines[1] = d.lines[0] }},
		{"unreferenced dictionary entry", "no row references", func(d *snapDoc) { d.lines = append(d.lines, isp.LineV6Addr(0, 8)) }},
		{"line ID out of range", "references line", func(d *snapDoc) { d.hourly[0].rows[1].line = 2 }},
		{"backend ID out of range", "references backend", func(d *snapDoc) { d.hourly[0].rows[1].backend = uint32(len(f.idx.addrs)) }},
		{"unknown flag bits", "flag bits", func(d *snapDoc) { d.hourly[0].rows[1].flags = rowFlagMask + 1 }},
		{"NaN volume", "not an integer", func(d *snapDoc) { d.hourly[0].rows[0].bytes = math.NaN() }},
		{"infinite volume", "not an integer", func(d *snapDoc) { d.hourly[0].rows[0].bytes = math.Inf(1) }},
		{"negative volume", "not an integer", func(d *snapDoc) { d.hourly[0].rows[0].bytes = -1 }},
		{"negative zero volume", "not an integer", func(d *snapDoc) { d.hourly[0].rows[1].bytes = math.Copysign(0, -1) }},
		{"fractional volume", "not an integer", func(d *snapDoc) { d.hourly[0].rows[0].bytes = 0.5 }},
		{"volume of 2^64", "not an integer", func(d *snapDoc) { d.hourly[0].rows[0].bytes = 0x1p64 }},
		{"volume of 1e300", "not an integer", func(d *snapDoc) { d.hourly[0].rows[0].bytes = 1e300 }},
		{"rows out of order", "not sorted", func(d *snapDoc) { r := d.hourly[0].rows; r[0], r[1] = r[1], r[0] }},
		{"records above rows", "records in", func(d *snapDoc) { d.hourly[0].records = 3 }},
		{"records not the kept rows", "rows keep", func(d *snapDoc) { d.hourly[0].records = 2 }},
		{"duplicate hour", "does not follow", func(d *snapDoc) { d.hourly[1].ah = 10 }},
		{"descending hours", "does not follow", func(d *snapDoc) { d.hourly[0].ah, d.hourly[1].ah = 50, 10 }},
		{"negative hour", "does not follow", func(d *snapDoc) { d.hourly[0].ah = -1 }},
		{"hour past the newest", "outside window", func(d *snapDoc) { d.hourly[1].ah = 51 }},
		{"hour before the window", "outside window", func(d *snapDoc) { d.hourly[0].ah = 2 }},
		{"more hours than the window", "live hours", func(d *snapDoc) {
			for ah := int64(51); ah < 98; ah++ {
				d.hourly = append(d.hourly, snapDocHour{ah: ah})
			}
		}},
		{"trailing bytes", "trailing bytes", func(d *snapDoc) { d.tail = []byte{0} }},
	}
	for _, tc := range cases {
		d := validSnapDoc()
		tc.edit(&d)
		_, err := Restore(bytes.NewReader(d.encode(f.idx, opts)), f.idx, opts)
		if err == nil || !strings.Contains(err.Error(), tc.wants) {
			t.Errorf("%s: got error %v, want one containing %q", tc.name, err, tc.wants)
		}
	}

	// Truncation anywhere, mid-rows included, is an error.
	for cut := 0; cut < len(valid); cut++ {
		if _, err := Restore(bytes.NewReader(valid[:cut]), f.idx, opts); err == nil {
			t.Fatalf("stream truncated to %d of %d bytes restored", cut, len(valid))
		}
	}
}

// TestWindowRestoreBoundedAllocation: a count field is a claim, not a
// budget — streams that promise 2^26 rows or lines (IWIN) or 2^24
// dictionary entries (IWTB) and deliver a few bytes fail without
// allocating for the promise.
func TestWindowRestoreBoundedAllocation(t *testing.T) {
	f := buildDenseFixture(23)
	opts := f.opts
	rows := validSnapDoc()
	rows.hourly[1].claim = maxSnapshotEntries
	rows.hourly[1].records = 0
	lines := validSnapDoc().encode(f.idx, opts)
	// The line count follows the 74-byte header.
	binary.LittleEndian.PutUint32(lines[74:], maxSnapshotEntries)
	// IWTB: magic, version, line count [, backend count].
	wireHead := binary.LittleEndian.AppendUint16([]byte(wireTablesMagic), wireTablesVersion)
	wireLines := binary.LittleEndian.AppendUint32(slices.Clone(wireHead), maxWireDictEntries)
	wireBacks := binary.LittleEndian.AppendUint32(slices.Clone(wireHead), 0)
	wireBacks = binary.LittleEndian.AppendUint32(wireBacks, maxWireDictEntries)
	win, err := NewWindow(f.idx, f.days[0], 48, opts)
	if err != nil {
		t.Fatal(err)
	}
	window := func(data []byte) error {
		_, err := Restore(bytes.NewReader(data), f.idx, opts)
		return err
	}
	tables := func(data []byte) error {
		_, err := RestoreWireTables(bytes.NewReader(data), win)
		return err
	}
	for name, c := range map[string]struct {
		data    []byte
		restore func([]byte) error
	}{
		"rows":          {rows.encode(f.idx, opts), window},
		"lines":         {lines, window},
		"wire lines":    {wireLines, tables},
		"wire backends": {wireBacks, tables},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := c.restore(c.data)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: %d-byte stream claiming millions of entries restored", name, len(c.data))
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
			t.Errorf("%s: restore of a %d-byte stream allocated %d bytes", name, len(c.data), got)
		}
	}
}

// FuzzWindowRestore: Restore never panics on arbitrary bytes, and any
// stream it accepts is canonical — the restored window snapshots back to
// exactly the input.
func FuzzWindowRestore(f *testing.F) {
	fx := buildDenseFixture(11)
	opts := fx.opts
	opts.ScannerThreshold = 3
	flushes := len(hourFlushes(fx.recs, fx.days[0]))
	for _, upto := range []int{0, 1, flushes / 2, flushes} {
		f.Add(snapshotBytes(f, fedWindow(f, fx, opts, upto)))
	}
	f.Add(validSnapDoc().encode(fx.idx, opts))
	f.Add(wideSnapDoc(float64(opts.SamplingRate)).encode(fx.idx, opts))
	f.Fuzz(func(t *testing.T, data []byte) {
		win, err := Restore(bytes.NewReader(data), fx.idx, opts)
		if err != nil {
			return
		}
		if again := snapshotBytes(t, win); !bytes.Equal(again, data) {
			t.Fatalf("accepted a %d-byte stream that re-snapshots to %d different bytes", len(data), len(again))
		}
		flushRecords(win, []netflow.Record{fx.recs[0]})
		win.Study()
	})
}

// FuzzWireTablesRestore: RestoreWireTables never panics on arbitrary
// bytes, and whatever it accepts snapshots and restores again to equal
// tables.
func FuzzWireTablesRestore(f *testing.F) {
	fx := buildDenseFixture(17)
	win, err := NewWindow(fx.idx, fx.days[0], 48, fx.opts)
	if err != nil {
		f.Fatal(err)
	}
	snap := func(t *WireTables) []byte {
		var buf bytes.Buffer
		if err := t.Snapshot(&buf); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	tables := win.NewWireTables()
	f.Add(snap(tables))
	// Bases past the table ends leave lost entries of both kinds.
	if err := tables.AddLines(2, []netip.Addr{isp.LineV4Addr(0, 7), isp.LineV6Addr(1, 9), netip.MustParseAddr("10.1.2.3")}); err != nil {
		f.Fatal(err)
	}
	if err := tables.AddBackends(1, append([]netip.Addr{netip.MustParseAddr("203.0.113.9")}, fx.idx.addrs[:5]...)); err != nil {
		f.Fatal(err)
	}
	f.Add(snap(tables))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := RestoreWireTables(bytes.NewReader(data), win)
		if err != nil {
			return
		}
		again, err := RestoreWireTables(bytes.NewReader(snap(got)), win)
		if err != nil {
			t.Fatalf("accepted a %d-byte stream whose re-snapshot is refused: %v", len(data), err)
		}
		if !reflect.DeepEqual(again.lines, got.lines) || !reflect.DeepEqual(again.backends, got.backends) {
			t.Fatalf("accepted a %d-byte stream that does not round-trip:\n%+v %v\n%+v %v",
				len(data), got.lines, got.backends, again.lines, again.backends)
		}
	})
}
