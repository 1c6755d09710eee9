package flows

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"net/netip"
	"slices"
	"time"
)

// Checkpoint/restore of the sliding window. A window's whole state is
// its header (geometry, newest hour, refusal/eviction counters) plus the
// live hours' row logs, so the snapshot is exactly that: one canonical
// line dictionary and each live hour's rows in a canonical order. The
// format is versioned, little-endian, and count-prefixed throughout; a
// restored window continues ingesting as if the process had never died,
// which the kill-resume acceptance test pins down to byte-identical
// figures.
//
// Safety: restore never trusts a count — dictionary entries and rows are
// read incrementally (rows in bounded chunks), so memory grows only with
// bytes the stream actually delivered, and every ID, flag, volume and
// ordering constraint is validated, so a corrupt or truncated checkpoint
// fails with an error instead of an OOM or a silently skewed study. A
// fingerprint of the BackendIndex and Options binds a checkpoint to the
// world and configuration that produced it.

// snapshotMagic / snapshotVersion identify a Window snapshot stream.
const (
	snapshotMagic   = "IWIN"
	snapshotVersion = 2
)

// wireTablesMagic / wireTablesVersion identify a WireTables snapshot.
const (
	wireTablesMagic   = "IWTB"
	wireTablesVersion = 1
)

// maxSnapshotEntries bounds any count field read from a snapshot.
const maxSnapshotEntries = 1 << 26

// maxSnapshotHours bounds the window length Restore will rebuild (its
// rings are allocated before any row is read): wire batches carry hours
// as 16-bit offsets from the stream epoch, so no feed can fill more.
const maxSnapshotHours = 1 << 16

// snapRowBytes is one encoded row: line u32, backend u32, port u16,
// flags u8, volume f64. A row volume is rowVol's integer, which is a
// float64 (a wide row's restored volume is one too), so the f64 carries
// it exactly. snapRowChunk is how many Restore reads at a time.
const (
	snapRowBytes = 19
	snapRowChunk = 4096
)

// --- codec helpers -------------------------------------------------------

// snapWriter is a little-endian writer with a latched error, so encode
// paths read straight-line without per-call error plumbing.
type snapWriter struct {
	w   io.Writer
	err error
	buf [8]byte
}

func (s *snapWriter) write(b []byte) {
	if s.err != nil {
		return
	}
	_, s.err = s.w.Write(b)
}

func (s *snapWriter) u8(v uint8) { s.buf[0] = v; s.write(s.buf[:1]) }
func (s *snapWriter) u16(v uint16) {
	binary.LittleEndian.PutUint16(s.buf[:2], v)
	s.write(s.buf[:2])
}
func (s *snapWriter) u32(v uint32) {
	binary.LittleEndian.PutUint32(s.buf[:4], v)
	s.write(s.buf[:4])
}
func (s *snapWriter) u64(v uint64) {
	binary.LittleEndian.PutUint64(s.buf[:8], v)
	s.write(s.buf[:8])
}
func (s *snapWriter) i64(v int64) { s.u64(uint64(v)) }

func (s *snapWriter) addr(a netip.Addr) {
	b, err := a.MarshalBinary()
	if err != nil && s.err == nil {
		s.err = err
	}
	s.u32(uint32(len(b)))
	s.write(b)
}

// snapReader mirrors snapWriter: little-endian reads with a latched
// error and bounded counts.
type snapReader struct {
	r   io.Reader
	err error
	buf [16]byte
}

func (s *snapReader) read(b []byte) {
	if s.err != nil {
		return
	}
	_, s.err = io.ReadFull(s.r, b)
}

func (s *snapReader) u8() uint8 { s.read(s.buf[:1]); return s.buf[0] }
func (s *snapReader) u16() uint16 {
	s.read(s.buf[:2])
	return binary.LittleEndian.Uint16(s.buf[:2])
}
func (s *snapReader) u32() uint32 {
	s.read(s.buf[:4])
	return binary.LittleEndian.Uint32(s.buf[:4])
}
func (s *snapReader) u64() uint64 {
	s.read(s.buf[:8])
	return binary.LittleEndian.Uint64(s.buf[:8])
}
func (s *snapReader) i64() int64 { return int64(s.u64()) }

// count reads a length field and refuses implausible values.
func (s *snapReader) count(what string) int {
	n := s.u32()
	if s.err == nil && n > maxSnapshotEntries {
		s.err = fmt.Errorf("flows: snapshot %s count %d exceeds limit %d", what, n, maxSnapshotEntries)
	}
	return int(n)
}

// addr reads a length-prefixed IPv4 or IPv6 address.
func (s *snapReader) addr(what string) netip.Addr {
	n := s.u32()
	if s.err == nil && n != 4 && n != 16 {
		s.err = fmt.Errorf("flows: snapshot %s has length %d, want 4 or 16", what, n)
	}
	if s.err != nil {
		return netip.Addr{}
	}
	s.read(s.buf[:n])
	a, _ := netip.AddrFromSlice(s.buf[:n])
	return a
}

// --- fingerprints --------------------------------------------------------

// fingerprint binds a snapshot to the index and options it was taken
// under: restoring against a different world or configuration would
// silently mis-assign every dense ID, so it is refused up front.
func (b *BackendIndex) fingerprint() uint64 {
	b.ensureBuilt()
	h := fnv.New64a()
	for _, a := range b.addrs {
		raw, _ := a.MarshalBinary()
		h.Write(raw)
	}
	for _, n := range b.aliasNames {
		h.Write([]byte(n))
	}
	return h.Sum64()
}

// optionsFingerprint hashes the Options fields that shape aggregation.
func optionsFingerprint(o Options) uint64 {
	h := fnv.New64a()
	// "n=0" is the size of a pre-seeded exclusion set Options once
	// carried. Every snapshot ever written had an empty one, so the
	// text stays and existing snapshots keep their fingerprint.
	fmt.Fprintf(h, "t=%d r=%d fa=%q fr=%q v=%q n=0", o.ScannerThreshold, o.SamplingRate, o.FocusAlias, o.FocusRegion, o.Vantage)
	return h.Sum64()
}

// --- Window snapshot -----------------------------------------------------

// snapRow is one row in the snapshot's canonical form: the line is a
// dictionary ID, not a window line ID, and the volume is the float64 the
// row encodes.
type snapRow struct {
	line, backend uint32
	port          uint16
	flags         uint8
	bytes         float64
}

// cmpSnapRow is the canonical row order. Volumes are non-negative and
// never NaN, so the numeric order is total.
func cmpSnapRow(a, b snapRow) int {
	if c := cmp.Compare(a.line, b.line); c != 0 {
		return c
	}
	if c := cmp.Compare(a.backend, b.backend); c != 0 {
		return c
	}
	if c := cmp.Compare(a.port, b.port); c != 0 {
		return c
	}
	if c := cmp.Compare(a.flags, b.flags); c != 0 {
		return c
	}
	return cmp.Compare(a.bytes, b.bytes)
}

// Snapshot writes a versioned binary checkpoint of the window — the
// header and every live hour's row log — to dst. The window stays live;
// concurrent ingest is blocked only for the duration of the encode.
// Restore with Restore against the same index and Options.
//
// Layout (IWIN v2): magic, version, index and options fingerprints,
// window hours, epoch, newest hour, the four WindowStats counters; the
// line dictionary (count, then the addresses live rows reference,
// strictly sorted); the live hour count, then per hour, ascending: the
// hour, its kept-record count, its row count, and the rows sorted by
// (line, backend, port, flags, bytes). The encoding is canonical: two
// windows holding the same rows serialize byte-identically whatever
// order the rows arrived in and whatever line IDs the windows gave
// their addresses (an original and its restored twin, say).
func Snapshot(dst io.Writer, w *Window) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	end := w.endA.Load()
	ws := w.startHour(end)
	stats := w.stats()
	s := &snapWriter{w: dst}
	s.write([]byte(snapshotMagic))
	s.u16(snapshotVersion)
	s.u64(w.idx.fingerprint())
	s.u64(optionsFingerprint(w.opts))
	s.u32(uint32(w.hours))
	s.i64(w.epoch.UnixNano())
	s.i64(end)
	s.u64(stats.PreWindowRecords)
	s.u64(stats.LateRecords)
	s.u64(stats.EvictedHours)
	s.u64(stats.EvictedRecords)

	// The dictionary is the line IDs live rows reference, sorted by
	// address; remap[line ID] becomes the address's dictionary ID.
	addrs := w.lines.addrs
	remap := make([]int32, len(addrs))
	var dict []int32
	w.eachBucket(ws, end+1, func(bk *winBucket) {
		for _, lid := range bk.line {
			if remap[lid] == 0 {
				remap[lid] = 1
				dict = append(dict, lid)
			}
		}
	})
	slices.SortFunc(dict, func(a, b int32) int { return addrs[a].Compare(addrs[b]) })
	s.u32(uint32(len(dict)))
	for i, lid := range dict {
		remap[lid] = int32(i)
		s.addr(addrs[lid])
	}

	// The frame ledger already lists the live hours, ascending, with
	// their record totals.
	hours := w.bucketStats()
	s.u32(uint32(len(hours)))
	var rows []snapRow
	var enc []byte
	for _, h := range hours {
		rows = rows[:0]
		if bk := w.ring[h.Hour%int64(len(w.ring))]; bk != nil && bk.ah == h.Hour {
			for i, lid := range bk.line {
				rows = append(rows, snapRow{
					line:    uint32(remap[lid]),
					backend: uint32(bk.backend[i]),
					port:    bk.port[i],
					flags:   bk.flags[i],
					bytes:   float64(bk.vol(i, w.rate)),
				})
			}
		}
		slices.SortFunc(rows, cmpSnapRow)
		s.i64(h.Hour)
		s.u64(h.Records)
		s.u32(uint32(len(rows)))
		enc = enc[:0]
		for _, r := range rows {
			enc = binary.LittleEndian.AppendUint32(enc, r.line)
			enc = binary.LittleEndian.AppendUint32(enc, r.backend)
			enc = binary.LittleEndian.AppendUint16(enc, r.port)
			enc = append(enc, r.flags)
			enc = binary.LittleEndian.AppendUint64(enc, math.Float64bits(r.bytes))
		}
		s.write(enc)
	}
	return s.err
}

// Restore reads a Snapshot-written checkpoint and rebuilds the window.
// idx and opts must match the
// snapshotting process's, enforced via fingerprints: dense backend IDs
// are deterministic for one built index, so the restored rows mean what
// they meant. Anything Restore accepts re-snapshots byte-identically.
func Restore(src io.Reader, idx *BackendIndex, opts Options) (*Window, error) {
	s := &snapReader{r: src}
	magic := make([]byte, len(snapshotMagic))
	s.read(magic)
	if s.err == nil && string(magic) != snapshotMagic {
		return nil, fmt.Errorf("flows: not a window snapshot (magic %q)", magic)
	}
	if v := s.u16(); s.err == nil && v != snapshotVersion {
		return nil, fmt.Errorf("flows: window snapshot is IWIN version %d, this build reads only version %d", v, snapshotVersion)
	}
	idxFP := s.u64()
	optFP := s.u64()
	if s.err == nil && idxFP != idx.fingerprint() {
		return nil, fmt.Errorf("flows: snapshot was taken over a different backend index")
	}
	if s.err == nil && optFP != optionsFingerprint(opts) {
		return nil, fmt.Errorf("flows: snapshot was taken under different aggregation options")
	}
	hours := s.u32()
	epoch := time.Unix(0, s.i64()).UTC()
	end := s.i64()
	var stats WindowStats
	stats.PreWindowRecords = s.u64()
	stats.LateRecords = s.u64()
	stats.EvictedHours = s.u64()
	stats.EvictedRecords = s.u64()
	if s.err != nil {
		return nil, s.err
	}
	if hours > maxSnapshotHours {
		return nil, fmt.Errorf("flows: snapshot window of %d hours exceeds limit %d", hours, maxSnapshotHours)
	}
	// Hours become time.Durations since the epoch (BucketStat.Start,
	// Span), which bounds them well below where hour arithmetic wraps.
	if end < -1 || end > math.MaxInt64/int64(time.Hour) {
		return nil, fmt.Errorf("flows: snapshot newest hour %d is invalid", end)
	}
	w, err := NewWindow(idx, epoch, int(hours), opts)
	if err != nil {
		return nil, err
	}
	w.endA.Store(end)
	w.preWindow = stats.PreWindowRecords
	w.late = stats.LateRecords
	w.evictedHours = stats.EvictedHours
	w.evictedRecords = stats.EvictedRecords
	// A division per row would slow Restore; the forward check below
	// keeps the multiply exact.
	inv := 1 / w.rate

	// Strictly sorted addresses are distinct, so entry i interns as
	// window line ID i.
	nLines := s.count("line")
	var prev netip.Addr
	for i := 0; i < nLines && s.err == nil; i++ {
		a := s.addr("line address")
		if s.err != nil {
			break
		}
		if i > 0 && a.Compare(prev) <= 0 {
			return nil, fmt.Errorf("flows: snapshot line dictionary is not strictly sorted at entry %d", i)
		}
		prev = a
		w.lines.id(a)
	}
	if s.err != nil {
		return nil, s.err
	}
	referenced := make([]bool, nLines)
	unreferenced := nLines

	nHours := s.count("hour")
	if s.err == nil && nHours > int(hours) {
		return nil, fmt.Errorf("flows: snapshot has %d live hours in a %d-hour window", nHours, hours)
	}
	var chunk []byte
	lastHour := int64(-1)
	for i := 0; i < nHours && s.err == nil; i++ {
		ah := s.i64()
		records := s.u64()
		nRows := s.count("row")
		if s.err != nil {
			break
		}
		if ah <= lastHour {
			return nil, fmt.Errorf("flows: snapshot hour %d does not follow hour %d", ah, lastHour)
		}
		if ah > end || end-ah >= int64(hours) {
			return nil, fmt.Errorf("flows: snapshot hour %d outside window ending at %d", ah, end)
		}
		if records > uint64(nRows) {
			return nil, fmt.Errorf("flows: snapshot hour %d claims %d records in %d rows", ah, records, nRows)
		}
		lastHour = ah
		// The bucket's columns grow with the rows read, so each hour holds
		// what it read and a claimed count allocates nothing until its
		// bytes arrive.
		bk := &winBucket{ah: ah}
		w.ring[ah%int64(len(w.ring))] = bk
		var last snapRow
		for left := nRows; left > 0; {
			n := min(left, snapRowChunk)
			left -= n
			chunk = slices.Grow(chunk[:0], n*snapRowBytes)[:n*snapRowBytes]
			s.read(chunk)
			if s.err != nil {
				return nil, s.err
			}
			bk.grow(n, nRows)
			for b := chunk; len(b) > 0; b = b[snapRowBytes:] {
				r := snapRow{
					line:    binary.LittleEndian.Uint32(b),
					backend: binary.LittleEndian.Uint32(b[4:]),
					port:    binary.LittleEndian.Uint16(b[8:]),
					flags:   b[10],
				}
				vol := binary.LittleEndian.Uint64(b[11:])
				r.bytes = math.Float64frombits(vol)
				switch {
				case int(r.line) >= nLines:
					return nil, fmt.Errorf("flows: snapshot row references line %d of %d", r.line, nLines)
				case int(r.backend) >= len(idx.addrs):
					return nil, fmt.Errorf("flows: snapshot row references backend %d of %d", r.backend, len(idx.addrs))
				case r.flags&^rowFlagMask != 0:
					return nil, fmt.Errorf("flows: snapshot row has unknown flag bits %#x", r.flags)
				case vol >= math.Float64bits(0x1p64) || r.bytes != math.Trunc(r.bytes):
					// The unsigned compare rejects NaN, ±Inf, 2^64 and up,
					// and every negative value, -0 included.
					return nil, fmt.Errorf("flows: snapshot row volume %v is not an integer in [0, 2^64)", r.bytes)
				case cmpSnapRow(last, r) > 0:
					return nil, fmt.Errorf("flows: snapshot hour %d rows are not sorted", ah)
				}
				last = r
				if !referenced[r.line] {
					referenced[r.line] = true
					unreferenced--
				}
				if r.flags&rowKept != 0 {
					bk.records++
				}
				// A row keeps a counter q only if rowVol(q, rate) is its
				// volume; the rest keep their volume. Below 2^32 at a
				// uint32 rate, q·rate stays below 2^64, so rowVol(q, rate)
				// is float64(q)·rate, compared here bit for bit.
				q := uint32(wideRow)
				if x := r.bytes*inv + 0.5; x < wideRow && math.Float64bits(float64(uint32(x))*w.rate) == vol {
					q = uint32(x)
				}
				bk.add(int32(r.line), int32(r.backend), r.port, r.flags, q, uint64(r.bytes))
			}
		}
		if bk.records != records {
			return nil, fmt.Errorf("flows: snapshot hour %d claims %d records, its rows keep %d", ah, records, bk.records)
		}
		w.rowHint = max(w.rowHint, nRows)
		slot := int(ah % int64(hours))
		w.hourLive[slot] = true
		w.hourRecs[slot] = records
	}
	if s.err != nil {
		return nil, s.err
	}
	if unreferenced != 0 {
		return nil, fmt.Errorf("flows: snapshot line dictionary has %d entries no row references", unreferenced)
	}
	if n, _ := io.ReadFull(src, s.buf[:1]); n != 0 {
		return nil, fmt.Errorf("flows: trailing bytes after window snapshot")
	}
	return w, nil
}

// --- WireTables snapshot -------------------------------------------------

// Snapshot encodes the dictionary tables so a stream resumed from a
// checkpoint (a recorded-file tail, typically) can keep decoding batch
// frames without a fresh hello/dictionary exchange. Backend entries
// store their resolved dense IDs directly — the window snapshot's index
// fingerprint already pins the ID assignment.
func (t *WireTables) Snapshot(dst io.Writer) error {
	s := &snapWriter{w: dst}
	s.write([]byte(wireTablesMagic))
	s.u16(wireTablesVersion)
	s.u32(uint32(len(t.lines)))
	for i := range t.lines {
		if t.lines[i].valid {
			s.u8(1)
			s.addr(t.lines[i].addr)
		} else {
			s.u8(0)
		}
	}
	s.u32(uint32(len(t.backends)))
	for _, b := range t.backends {
		s.i64(int64(b))
	}
	return s.err
}

// RestoreWireTables decodes a WireTables snapshot into fresh tables
// bound to sink.
func RestoreWireTables(src io.Reader, sink Sink) (*WireTables, error) {
	t := sink.NewWireTables()
	s := &snapReader{r: src}
	magic := make([]byte, len(wireTablesMagic))
	s.read(magic)
	if s.err == nil && string(magic) != wireTablesMagic {
		return nil, fmt.Errorf("flows: not a wire-tables snapshot (magic %q)", magic)
	}
	if v := s.u16(); s.err == nil && v != wireTablesVersion {
		return nil, fmt.Errorf("flows: wire-tables snapshot version %d (want %d)", v, wireTablesVersion)
	}
	nl := s.count("wire line")
	if s.err == nil && nl > maxWireDictEntries {
		return nil, fmt.Errorf("flows: wire-tables snapshot has %d lines (limit %d)", nl, maxWireDictEntries)
	}
	// Both tables grow with the entries actually read: a claimed count
	// allocates nothing until the bytes behind it arrive.
	for i := 0; i < nl && s.err == nil; i++ {
		if s.u8() == 0 {
			t.lines = append(t.lines, wireLineEnt{})
			continue
		}
		if a := s.addr("wire line addr"); s.err == nil {
			t.addLine(a)
		}
	}
	nb := s.count("wire backend")
	if s.err == nil && nb > maxWireDictEntries {
		return nil, fmt.Errorf("flows: wire-tables snapshot has %d backends (limit %d)", nb, maxWireDictEntries)
	}
	for i := 0; i < nb && s.err == nil; i++ {
		id := s.i64()
		if s.err == nil && (id < int64(lostBackend) || id >= int64(len(t.idx.addrs))) {
			s.err = fmt.Errorf("flows: wire-tables snapshot backend ID %d out of range", id)
			break
		}
		t.backends = append(t.backends, int32(id))
	}
	if s.err != nil {
		return nil, s.err
	}
	return t, nil
}
