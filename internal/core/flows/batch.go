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
// only by the producer. The per-line memos and the classifier's scratch
// belong to whichever side writes them, and each is grown to the
// dictionary length its writer is handed:
//   - a ShardPartial's decode half (Classify) classifies on the
//     producer's tables, writing entSlot, touched, ents and ccID;
//   - its fold half (FoldKept) interns Collector lines into colID,
//     through a WireView's fold-side tables when it runs on another
//     goroutine;
//   - a Window's IngestBatch classifies and interns on the tables it is
//     handed (the fold side, in a collector), writing entSlot, touched,
//     ents and winID.
//
// One goroutine may do all of it on one set of tables. No locking
// either way.
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
	// ccID, colID and winID are each line's lazily interned sink IDs
	// (ContactCounter, Collector, window-shard line table), stored +1 so
	// 0 means "not interned yet".
	ccID, colID, winID []int32
	// entSlot/touched/ents scratch one classifyFlush call: a line's
	// indexed row count, then its light verdict (slotKept, slotExcluded)
	// or -(index+1) of its evidence entry in ents, one entry per line
	// heavy enough to be a scanner suspect; touched lists the counted
	// lines in first-appearance order. The entries' bitsets are recycled
	// across flushes.
	entSlot []int32
	touched []int32
	ents    []endEnt
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

// Light lines' entSlot values once classifyFlush has counted them.
const (
	slotKept     int32 = 1
	slotExcluded int32 = 2
)

// classifyFlush is the §5.2 per-flush scanner verdict, shared by both
// sinks: a line is over when it is pre-excluded or its distinct
// backends among the flush's indexed rows exceed threshold. It counts
// each line's indexed rows into t.entSlot (t.touched lists the lines
// counted). A line's distinct backends never outnumber its rows, so
// only a line with more rows than threshold can cross it: that line
// alone, unless pre-excluded, pools its evidence into an entry of
// t.ents and gets a popcount. Every other line's verdict is its
// pre-exclusion, which its entSlot then holds. Read verdicts with
// t.over; the caller folds the rows, then calls t.releaseEnts.
func classifyFlush(t *WireTables, b *netflow.RecordBatch, threshold int) {
	t.entSlot = grown(t.entSlot, len(t.lines))
	for i, bid := range b.Backend {
		if t.backends[bid] < 0 {
			continue
		}
		li := b.Line[i]
		if t.entSlot[li] == 0 {
			t.touched = append(t.touched, int32(li))
		}
		t.entSlot[li]++
	}
	words := t.idx.words
	ents := t.ents[:0]
	for _, li := range t.touched {
		switch {
		case t.lines[li].excluded:
			t.entSlot[li] = slotExcluded
		case int(t.entSlot[li]) > threshold:
			ents = appendEnt(ents, words)
			t.entSlot[li] = -int32(len(ents))
		default:
			t.entSlot[li] = slotKept
		}
	}
	t.ents = ents
	if len(ents) == 0 {
		return
	}
	for i, bid := range b.Backend {
		be := t.backends[bid]
		if e := t.entSlot[b.Line[i]]; e < 0 && be >= 0 {
			setBit(ents[-e-1].bits, int(be))
		}
	}
	for i := range ents {
		ents[i].over = popcount(ents[i].bits) > threshold
	}
}

// over is line li's verdict from the classifyFlush in progress on t.
func (t *WireTables) over(li uint32) bool {
	e := t.entSlot[li]
	return e == slotExcluded || e < 0 && t.ents[-e-1].over
}

// releaseEnts clears the per-flush line counts and entry assignment.
func (t *WireTables) releaseEnts() {
	for _, li := range t.touched {
		t.entSlot[li] = 0
	}
	t.touched = t.touched[:0]
	t.ents = t.ents[:0]
}

// endEnt is one heavy line's per-flush contact evidence.
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
// b is left as it is.
//
// Every row with an indexed backend contributes contact evidence
// (Figure 5 counts scanners' contacts too), per-line exclusion applies
// at flush granularity with this batch's distinct-backend evidence, and
// only rows from kept lines with in-window hours reach the Collector.
func (p *ShardPartial) IngestBatch(t *WireTables, b *netflow.RecordBatch) {
	p.kept.Reset()
	p.kept.AppendBatch(b)
	p.ingest(t, &p.kept)
}

// ingest is IngestBatch on a batch the partial may rewrite: the two
// halves a collector stream runs on two goroutines, Classify and
// FoldKept, in sequence.
func (p *ShardPartial) ingest(t *WireTables, b *netflow.RecordBatch) {
	p.Classify(t, b)
	p.FoldKept(t, b)
}

// Classify is IngestBatch's decode half: it classifies the flush
// interval b, counts every indexed row's contact into the partial's
// ContactCounter, and compacts b in place to the rows FoldKept takes —
// kept lines' rows with an indexed backend and an in-window hour — with
// the backend column rewritten to dense backend IDs. It writes the
// ContactCounter and t's classifier state and memo, and neither reads
// nor writes the Collector, so it may run on the producer's goroutine
// while FoldKept runs on another.
func (p *ShardPartial) Classify(t *WireTables, b *netflow.RecordBatch) {
	if b.Len() == 0 {
		return
	}
	classifyFlush(t, b, p.threshold)
	cc := p.cc
	t.ccID = grown(t.ccID, len(t.lines))
	for _, li := range t.touched {
		id := t.ccID[li] - 1
		if id < 0 {
			id = cc.lineID(t.lines[li].addr)
			t.ccID[li] = id + 1
		}
		if e := t.entSlot[li]; e < 0 {
			orBits(cc.lineBits(int(id)), t.ents[-e-1].bits)
		}
	}

	hours := p.hours
	k := 0
	for i, bid := range b.Backend {
		be := t.backends[bid]
		if be < 0 {
			continue
		}
		li := b.Line[i]
		if t.entSlot[li] > 0 {
			// A light line pooled no evidence: it goes in row by row.
			setBit(cc.bits[int(t.ccID[li]-1)*cc.words:], int(be))
		}
		if t.over(li) {
			continue
		}
		h := b.Hour[i]
		if h < 0 || int(h) >= hours {
			continue
		}
		if k < i {
			b.Line[k], b.Down[k], b.Hour[k] = li, b.Down[i], h
			b.Port[k], b.Proto[k], b.Bytes[k], b.Packets[k] = b.Port[i], b.Proto[i], b.Bytes[i], b.Packets[i]
		}
		b.Backend[k] = uint32(be)
		k++
	}
	b.Truncate(k)
	t.releaseEnts()
}

// FoldKept is IngestBatch's fold half: it folds rows Classify kept into
// the partial's Collector, interning their lines through t's Collector
// memo. t is the tables Classify ran on, or the fold side of a WireView
// of them taken after it.
func (p *ShardPartial) FoldKept(t *WireTables, b *netflow.RecordBatch) {
	col := p.col
	col.checkWritable()
	t.colID = grown(t.colID, len(t.lines))
	for i, li := range b.Line {
		id := t.colID[li] - 1
		if id < 0 {
			id = col.lineID(t.lines[li].addr)
			t.colID[li] = id + 1
		}
		port := proto.PortKey{Port: b.Port[i]}
		if b.Proto[i] == netflow.ProtoUDP {
			port.Transport = proto.UDP
		}
		col.ingestDense(int(id), int32(b.Backend[i]), b.Down[i], int(b.Hour[i]), port, float64(b.Bytes[i])*col.rate)
	}
}

// IngestLine is memory mode's drive, the dictionary stream without the
// bytes: it folds one line's rows from a producer that numbers backends
// by a fixed table of its own (isp.Network.EmitLines: server ordinals).
// backends is that table, bound by AddBackends on the first call; the
// line column indexes addrs. b is rewritten in place: its line column
// to the tables' IDs, then its rows to the ones Classify keeps.
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
	p.ingest(p.rows, b)
}
