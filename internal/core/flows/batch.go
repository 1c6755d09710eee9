package flows

import (
	"fmt"
	"net/netip"
	"time"

	"iotmap/internal/netflow"
	"iotmap/internal/proto"
)

// The one ingest shape: a flush interval crosses into a Sink as a
// netflow.RecordBatch of dense IDs resolved through the producer's
// WireTables. The dictionary wire format ships addresses once
// (dictionary frames → AddLines/AddBackends) and IDs thereafter, so
// the collector's hot loop never materializes a netip.Addr. The
// in-memory simulation emits rows itself (IngestLine); producers that
// hold netflow.Records (the v5/v6 and v9/IPFIX decoders) turn each
// record into a row with AppendRecord.

// maxWireDictEntries bounds a stream's dictionary size. The address
// plan tops out at 2^22 lines per vantage; the slack above that guards
// against a hostile dictionary frame inflating the tables to OOM.
const maxWireDictEntries = 1 << 24

// lostBackend marks a gap-filled backend dictionary entry (a dropped
// dictionary frame under a lossy fault policy). Distinct from
// unknownBackend: referencing a lost entry is frame damage, referencing
// a known-but-unindexed backend is silently skipped data.
const lostBackend int32 = -2

// unknownBackend marks a dictionary entry whose address is not in the
// BackendIndex. Rows referencing it are skipped, exactly as
// AppendRecord makes no row for a record without an indexed endpoint.
const unknownBackend int32 = -1

// wireLineEnt is one line-dictionary entry. Entries are written once,
// when the decoder appends them, and never rewritten.
type wireLineEnt struct {
	addr     netip.Addr
	excluded bool // pre-seeded scanner (Options.Excluded)
	valid    bool // false for gap-filled (lost) entries
}

// lineMemo is one line entry's lazily interned sink IDs, each stored
// +1 so the zero value means "not interned yet".
type lineMemo struct {
	cc  int32 // ContactCounter line ID+1, set on first contact evidence
	col int32 // Collector line ID+1, set on first kept record
	win int32 // window-shard line ID+1, set on first routed row
}

// WireTables is one producer's ID tables, bound to the index, exclusion
// set and study start of the Sink it feeds (a ShardPartial or a
// Window). They fill one of two ways, never both: dictionary entries
// are appended (AddLines/AddBackends from dictionary frames, which batch
// frames Validate against, or IngestLine from the simulator, whose rows
// need no check), or AppendRecord interns the lines of the records it
// resolves. Either way the rows fold via the sink's IngestBatch.
//
// Ownership is split between the two halves of a stream, so decode and
// fold may run on different goroutines. The dictionaries (lines,
// backends, and AppendRecord's interning) are append-only and written
// only by the producer. The fold memos (memo, entSlot, touched) are
// written only inside IngestBatch, which grows them to the dictionary
// length it is handed. One goroutine may do both; a fold on another
// goroutine reads the dictionaries through a WireView instead. No
// locking either way.
type WireTables struct {
	idx      *BackendIndex
	excluded map[netip.Addr]struct{}
	// start is hour 0 of the rows AppendRecord makes.
	start time.Time
	// shard is the window ingest shard the tables are bound to (nil for
	// ShardPartial-fed tables); memo.win IDs are IDs in its line table.
	shard    *winShard
	lines    []wireLineEnt
	backends []int32 // dense backend ID, unknownBackend, or lostBackend
	// recIDs interns the line addresses AppendRecord sees (its IDs index
	// lines); lastLine/lastID memo the previous record's, since a
	// producer emits a line's records back to back.
	recIDs   lineTab
	lastLine netip.Addr
	lastID   uint32
	// fold is the fold-side twin every View hands out (made on the
	// first View).
	fold *WireTables
	// memo holds each line's sink IDs; entSlot/touched scratch one
	// IngestBatch call's per-line ent assignment (index+1 into the
	// sink's recycled ents; 0 = none).
	memo    []lineMemo
	entSlot []int32
	touched []int32
}

// WireView is a producer's WireTables as a fold on another goroutine
// may read them: the dictionaries as of the View call, and the
// fold-side tables that keep the fold memos. Dictionary entries are
// never rewritten, so the prefix a view holds stays valid while the
// producer keeps appending past it.
type WireView struct {
	fold     *WireTables
	lines    []wireLineEnt
	backends []int32
}

// View captures t's dictionaries for a fold running on another
// goroutine. Call it on the producer's goroutine, after the rows it
// covers were validated or appended; every view of t shares one set of
// fold-side tables.
func (t *WireTables) View() WireView {
	if t.fold == nil {
		t.fold = &WireTables{idx: t.idx, excluded: t.excluded, start: t.start, shard: t.shard}
	}
	return WireView{fold: t.fold, lines: t.lines, backends: t.backends}
}

// Tables returns the fold-side tables reading v's dictionaries, to pass
// to the sink's IngestBatch. Call it on the fold's goroutine, in the
// order the views were taken.
func (v WireView) Tables() *WireTables {
	v.fold.lines, v.fold.backends = v.lines, v.backends
	return v.fold
}

// NewWireTables implements Sink: empty tables feeding p. A dictionary
// stream (re)starts with fresh tables on every hello frame.
func (p *ShardPartial) NewWireTables() *WireTables {
	return &WireTables{idx: p.idx, excluded: p.col.excluded, start: p.col.days[0]}
}

// Clone returns a copy of t's dictionaries bound to the same sink, for
// a producer that must keep appending while t is read elsewhere (a
// checkpoint still encoding it). The fold memos start empty, as on
// restored tables.
func (t *WireTables) Clone() *WireTables {
	return &WireTables{
		idx: t.idx, excluded: t.excluded, start: t.start, shard: t.shard,
		lines:    append([]wireLineEnt(nil), t.lines...),
		backends: append([]int32(nil), t.backends...),
		recIDs:   t.recIDs.clone(),
		lastLine: t.lastLine, lastID: t.lastID,
	}
}

// Lines returns the line-dictionary size (lost entries included).
func (t *WireTables) Lines() int { return len(t.lines) }

// dictGap validates a dictionary frame's base against the current table
// size and returns the number of entries to gap-fill as lost. A base
// below the current size would rewrite history (the exporter only ever
// appends); a base above it means earlier dictionary frames were
// dropped — the gap is filled with lost entries so later deltas still
// land at their advertised IDs.
func dictGap(kind string, base uint32, have, adding int) (int, error) {
	if int(base) < have {
		return 0, fmt.Errorf("flows: %s dictionary base %d rewinds %d existing entries", kind, base, have)
	}
	if int(base)+adding > maxWireDictEntries {
		return 0, fmt.Errorf("flows: %s dictionary would reach %d entries (limit %d)", kind, int(base)+adding, maxWireDictEntries)
	}
	return int(base) - have, nil
}

// AddLines appends one line-dictionary frame's addresses at base.
func (t *WireTables) AddLines(base uint32, addrs []netip.Addr) error {
	gap, err := dictGap("line", base, len(t.lines), len(addrs))
	if err != nil {
		return err
	}
	for i := 0; i < gap; i++ {
		t.lines = append(t.lines, wireLineEnt{})
	}
	for _, a := range addrs {
		t.addLine(a)
	}
	return nil
}

// addLine appends one valid line entry.
func (t *WireTables) addLine(a netip.Addr) {
	_, excluded := t.excluded[a]
	t.lines = append(t.lines, wireLineEnt{addr: a, excluded: excluded, valid: true})
}

// AddBackends appends one backend-dictionary frame's addresses at base,
// resolving each against the partial's BackendIndex.
func (t *WireTables) AddBackends(base uint32, addrs []netip.Addr) error {
	gap, err := dictGap("backend", base, len(t.backends), len(addrs))
	if err != nil {
		return err
	}
	for i := 0; i < gap; i++ {
		t.backends = append(t.backends, lostBackend)
	}
	for _, a := range addrs {
		if bi, ok := t.idx.info[a]; ok {
			t.backends = append(t.backends, bi.id)
		} else {
			t.backends = append(t.backends, unknownBackend)
		}
	}
	return nil
}

// Validate checks rows [from, b.Len()) against the dictionaries: every
// line ID must name a valid (non-lost) entry and every backend ID an
// existing entry that is not lost. Unknown (unindexed) backends pass —
// those rows are skipped at fold time. An error means the frame the
// rows came from is damaged; the caller discards the rows and applies
// its fault policy.
func (t *WireTables) Validate(b *netflow.RecordBatch, from int) error {
	for i := from; i < b.Len(); i++ {
		li := b.Line[i]
		if int(li) >= len(t.lines) || !t.lines[li].valid {
			return fmt.Errorf("flows: batch row references line ID %d (dictionary has %d entries)", li, len(t.lines))
		}
		bi := b.Backend[i]
		if int(bi) >= len(t.backends) || t.backends[bi] == lostBackend {
			return fmt.Errorf("flows: batch row references backend ID %d (dictionary has %d entries)", bi, len(t.backends))
		}
	}
	return nil
}

// AppendRecord resolves one flow record into a row of b; a record with
// no indexed endpoint makes none. The backend column carries the dense
// backend ID itself (the tables' backend dictionary becomes the index's
// identity table), the line column an ID interned here in first-seen
// order, and Hour is whole hours since the sink's study start (-1 for
// any earlier record).
// Bytes/Packets are copied as they are; a producer whose counters are
// sampled scales the columns before IngestBatch.
func (t *WireTables) AppendRecord(b *netflow.RecordBatch, r netflow.Record) {
	line, be, down, ok := t.idx.lineSide(r)
	if !ok {
		return
	}
	li := t.lastID
	if line != t.lastLine || len(t.lines) == 0 {
		t.backends = t.idx.identity
		li = uint32(t.recIDs.id(line))
		if int(li) == len(t.lines) {
			t.addLine(line)
		}
		t.lastLine, t.lastID = line, li
	}
	hour := int32(-1)
	if since := r.Start.Sub(t.start); since >= 0 {
		hour = int32(since / time.Hour)
	}
	// The backend-side port identifies the service.
	port := r.DstPort
	if down {
		port = r.SrcPort
	}
	b.Append(li, uint32(be), down, hour, port, r.Proto, r.Bytes, r.Packets)
}

// classifyFlush is the §5.2 per-flush scanner verdict, shared by both
// sinks' IngestBatch: it grows the fold memos to the dictionary, pools
// each line's distinct-backend evidence over every row of b with an
// indexed backend into ents (recycled from the caller; t.entSlot maps a
// line to its entry, t.touched lists the lines that got one) and marks
// a line over when it is pre-excluded or its evidence exceeds
// threshold. The caller folds the rows, then calls t.releaseEnts.
func classifyFlush(t *WireTables, b *netflow.RecordBatch, ents []endEnt, threshold int) []endEnt {
	if n := len(t.lines); len(t.memo) < n {
		t.memo = grown(t.memo, n)
		t.entSlot = grown(t.entSlot, n)
	}
	words := t.idx.words
	for i, bid := range b.Backend {
		be := t.backends[bid]
		if be < 0 {
			continue
		}
		li := b.Line[i]
		e := t.entSlot[li]
		if e == 0 {
			ents = appendEnt(ents, words)
			e = int32(len(ents))
			t.entSlot[li] = e
			t.touched = append(t.touched, int32(li))
		}
		setBit(ents[e-1].bits, int(be))
	}
	for _, li := range t.touched {
		ent := &ents[t.entSlot[li]-1]
		ent.over = t.lines[li].excluded || popcount(ent.bits) > threshold
	}
	return ents
}

// releaseEnts clears the per-flush line → entry assignment.
func (t *WireTables) releaseEnts() {
	for _, li := range t.touched {
		t.entSlot[li] = 0
	}
	t.touched = t.touched[:0]
}

// endEnt is one line address's per-flush contact evidence.
type endEnt struct {
	bits []uint64
	over bool
}

// appendEnt reuses (or allocates) the next per-flush line entry.
func appendEnt(ents []endEnt, words int) []endEnt {
	if cap(ents) > len(ents) {
		ents = ents[:len(ents)+1]
		ent := &ents[len(ents)-1]
		if len(ent.bits) != words {
			ent.bits = make([]uint64, words)
		} else {
			clearBits(ent.bits)
		}
		return ents
	}
	return append(ents, endEnt{bits: make([]uint64, words)})
}

// IngestBatch implements Sink: fold one flush interval's RecordBatch
// into the partial. Rows must have passed t.Validate or come from
// t.AppendRecord; Hour is in study hours (negative = before the study
// window) and Bytes is scaled by the partial's Options.SamplingRate.
//
// Every row with an indexed backend contributes contact evidence
// (Figure 5 counts scanners' contacts too), per-line exclusion applies
// at flush granularity with this batch's distinct-backend evidence, and
// only rows from kept lines with in-window hours reach the Collector.
func (p *ShardPartial) IngestBatch(t *WireTables, b *netflow.RecordBatch) {
	p.col.checkWritable()
	if b.Len() == 0 {
		return
	}
	ents := classifyFlush(t, b, p.ents[:0], p.threshold)
	for _, li := range t.touched {
		m := &t.memo[li]
		if m.cc == 0 {
			m.cc = p.cc.lineID(t.lines[li].addr) + 1
		}
		orBits(p.cc.lineBits(int(m.cc-1)), ents[t.entSlot[li]-1].bits)
	}

	for i, bid := range b.Backend {
		be := t.backends[bid]
		if be < 0 {
			continue
		}
		li := b.Line[i]
		if ents[t.entSlot[li]-1].over {
			continue
		}
		h := int(b.Hour[i])
		if h < 0 || h >= p.col.hours {
			continue
		}
		m := &t.memo[li]
		if m.col == 0 {
			m.col = p.col.lineID(t.lines[li].addr) + 1
		}
		port := proto.PortKey{Port: b.Port[i]}
		if b.Proto[i] == netflow.ProtoUDP {
			port.Transport = proto.UDP
		}
		p.col.ingestDense(int(m.col-1), be, b.Down[i], h, port, float64(b.Bytes[i])*p.col.rate)
	}

	t.releaseEnts()
	p.ents = ents
}

// IngestLine is memory mode's drive, the dictionary stream without the
// bytes: it folds one line's rows from a producer that numbers backends
// by a fixed table of its own (isp.Network.EmitLines: server ordinals).
// backends is that table, bound by AddBackends on the first call; the
// line column indexes addrs and is rewritten to the tables' IDs.
func (p *ShardPartial) IngestLine(backends, addrs []netip.Addr, b *netflow.RecordBatch) {
	if b.Len() == 0 {
		return
	}
	if p.rows == nil {
		p.rows = p.NewWireTables()
		if err := p.rows.AddBackends(0, backends); err != nil {
			panic(err) // past maxWireDictEntries backends
		}
	}
	base := uint32(len(p.rows.lines))
	if err := p.rows.AddLines(base, addrs); err != nil {
		panic(err) // past maxWireDictEntries lines
	}
	for i := range b.Line {
		b.Line[i] += base
	}
	p.IngestBatch(p.rows, b)
}
