package faultwire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/bits"
	"slices"
	"testing"
	"time"

	"iotmap/internal/netflow"
)

var studyStart = time.Date(2022, 3, 1, 0, 0, 0, 0, time.UTC)

// row is one delivered batch row: its feed-wide sequence number (the
// fixtures store it in the backend column) and its hour.
type row struct {
	id   uint32
	hour int32
}

// dictFeed builds a clean dictionary feed: a hello at studyStart, then per
// element of batches one batch frame holding a row for each listed hour,
// and a flush. Rows are numbered in feed order.
func dictFeed(t testing.TB, batches ...[]int32) ([]byte, []row) {
	t.Helper()
	out := netflow.AppendHelloFrame(nil, 100, studyStart.Unix())
	var rows []row
	for _, hours := range batches {
		var b netflow.RecordBatch
		for _, h := range hours {
			id := uint32(len(rows))
			b.Append(0, id, true, h, 443, netflow.ProtoTCP, 1200, 3)
			rows = append(rows, row{id, h})
		}
		var err error
		if out, _, err = netflow.AppendBatchFrames(out, &b); err != nil {
			t.Fatal(err)
		}
		out = netflow.AppendFlushFrame(out)
	}
	return out, rows
}

// cleanFeed is one single-row batch per study hour.
func cleanFeed(t testing.TB, hours int) []byte {
	t.Helper()
	batches := make([][]int32, hours)
	for h := range batches {
		batches[h] = []int32{int32(h)}
	}
	out, _ := dictFeed(t, batches...)
	return out
}

// weekFeed is two line batches shaped like the exporter's: each spans
// four days, and within a day its two devices each walk hours 0-23, so
// hours rise and fall again inside one batch frame.
func weekFeed(t testing.TB) ([]byte, []row) {
	t.Helper()
	var line []int32
	for d := int32(0); d < 4; d++ {
		for dev := 0; dev < 2; dev++ {
			for h := int32(0); h < 24; h++ {
				line = append(line, d*24+h)
			}
		}
	}
	return dictFeed(t, line, line)
}

// deliveredRows parses the intact frames of a damaged stream and
// returns the batch rows they carry, plus the batch frame count.
func deliveredRows(t testing.TB, out []byte) ([]row, int) {
	t.Helper()
	fr := netflow.NewFrameReader(bytes.NewReader(out))
	var rows []row
	frames := 0
	for {
		f, err := fr.Next()
		if err != nil {
			return rows, frames
		}
		if f.Type != netflow.FrameBatch {
			continue
		}
		var b netflow.RecordBatch
		if err := netflow.DecodeBatchPayload(f.Payload, &b); err != nil {
			t.Fatalf("delivered batch frame does not decode: %v", err)
		}
		frames++
		for i := range b.Backend {
			rows = append(rows, row{b.Backend[i], b.Hour[i]})
		}
	}
}

func readAll(t testing.TB, r io.Reader) ([]byte, error) {
	t.Helper()
	var out bytes.Buffer
	_, err := io.Copy(&out, r)
	return out.Bytes(), err
}

func TestWrapUntouchedWhenNoRuleMatches(t *testing.T) {
	sc := &Scenario{Seed: 1, Rules: []Rule{{Stream: 2, Faults: Faults{DropProb: 1}}}}
	base := bytes.NewReader([]byte("hello"))
	if got := sc.Wrap(0, "isp-a", base); got != io.Reader(base) {
		t.Fatalf("stream 0 should be returned untouched")
	}
	sc2 := &Scenario{Seed: 1, Rules: []Rule{{Stream: -1, Vantage: "ixp", Faults: Faults{DropProb: 1}}}}
	if got := sc2.Wrap(0, "isp-a", base); got != io.Reader(base) {
		t.Fatalf("vantage isp-a should be returned untouched")
	}
	if got := sc2.Wrap(1, "ixp", base); got == io.Reader(base) {
		t.Fatalf("vantage ixp should be wrapped")
	}
}

func TestDeterministicDamage(t *testing.T) {
	feed := cleanFeed(t, 168)
	run := func() ([]byte, Counts) {
		sc := Uniform(99, 0.2)
		r := sc.Wrap(0, "isp-a", bytes.NewReader(feed))
		out, err := readAll(t, r)
		if err != io.EOF && err != nil {
			t.Fatalf("read: %v", err)
		}
		return out, sc.Totals()
	}
	a, ca := run()
	b, cb := run()
	if !bytes.Equal(a, b) {
		t.Fatalf("same seed produced different damaged streams (%d vs %d bytes)", len(a), len(b))
	}
	if ca != cb {
		t.Fatalf("same seed produced different counts: %+v vs %+v", ca, cb)
	}
	if ca.Corrupted == 0 {
		t.Fatalf("expected corruption at p=0.2 over 337 frames, got %+v", ca)
	}
	if bytes.Equal(a, feed) {
		t.Fatalf("damaged stream should differ from clean feed")
	}

	c, _ := func() ([]byte, Counts) {
		sc := Uniform(100, 0.2)
		r := sc.Wrap(0, "isp-a", bytes.NewReader(feed))
		out, _ := readAll(t, r)
		return out, sc.Totals()
	}()
	if bytes.Equal(a, c) {
		t.Fatalf("different seeds should damage differently")
	}
}

func TestDropDupTruncate(t *testing.T) {
	feed := cleanFeed(t, 168)
	sc := &Scenario{Seed: 7, Rules: []Rule{{Stream: -1, Faults: Faults{
		DropProb: 0.3, DupProb: 0.3, TruncateProb: 0.2,
	}}}}
	r := sc.Wrap(0, "v", bytes.NewReader(feed))
	if _, err := readAll(t, r); err != nil && err != io.EOF {
		t.Fatalf("read: %v", err)
	}
	c := sc.Totals()
	if c.Dropped == 0 || c.Duplicated == 0 || c.Truncated == 0 {
		t.Fatalf("expected drops, dups, and truncations: %+v", c)
	}
}

func TestFeedDeathAtHour(t *testing.T) {
	feed := cleanFeed(t, 48)
	sc := FeedDeath(5, "isp-b", 24, studyStart)

	// Another vantage is untouched.
	if _, ok := sc.Wrap(0, "isp-a", bytes.NewReader(feed)).(*Reader); ok {
		t.Fatalf("isp-a should not be wrapped")
	}

	r := sc.Wrap(0, "isp-b", bytes.NewReader(feed))
	out, err := readAll(t, r)
	if !errors.Is(err, ErrInjectedDisconnect) {
		t.Fatalf("want ErrInjectedDisconnect, got %v", err)
	}
	// All frames before hour 24 must be delivered intact.
	if rows, batches := deliveredRows(t, out); batches != 24 || len(rows) != 24 {
		t.Fatalf("want 24 batch frames before death at hour 24, got %d (%d rows)", batches, len(rows))
	}
	if !sc.Totals().Killed {
		t.Fatalf("scenario should record the kill")
	}

	// KillClean ends with EOF instead.
	scc := &Scenario{Seed: 5, Start: studyStart, Rules: []Rule{
		{Stream: -1, FromHour: 24, Faults: Faults{Kill: true, KillClean: true}},
	}}
	rc := scc.Wrap(0, "isp-b", bytes.NewReader(feed))
	if _, err := readAll(t, rc); err != nil && err != io.EOF {
		t.Fatalf("clean kill should end in EOF, got %v", err)
	}
}

func TestHourWindowRule(t *testing.T) {
	feed := cleanFeed(t, 48)
	// Drop everything, but only during hours [10,20).
	sc := &Scenario{Seed: 3, Start: studyStart, Rules: []Rule{
		{Stream: -1, FromHour: 10, ToHour: 20, Faults: Faults{DropProb: 1}},
	}}
	r := sc.Wrap(0, "v", bytes.NewReader(feed))
	out, err := readAll(t, r)
	if err != nil && err != io.EOF {
		t.Fatalf("read: %v", err)
	}
	rows, _ := deliveredRows(t, out)
	hours := map[int32]bool{}
	for _, rw := range rows {
		hours[rw.hour] = true
	}
	for h := int32(0); h < 48; h++ {
		inWindow := h >= 10 && h < 20
		if hours[h] == inWindow {
			t.Fatalf("hour %d: delivered=%v, want %v", h, hours[h], !inWindow)
		}
	}
	if got := sc.Totals().Dropped; got != 10 {
		// 10 batch frames inside the window; flushes carry no rows.
		t.Fatalf("want 10 dropped frames, got %d", got)
	}
}

// TestWindowDropsExactlyItsRows: an hour window cuts through batch
// frames whose hours rise and fall, and removes exactly the rows inside
// it — every other row arrives, in order.
func TestWindowDropsExactlyItsRows(t *testing.T) {
	feed, all := weekFeed(t)
	sc := &Scenario{Seed: 3, Start: studyStart, Rules: []Rule{
		{Stream: -1, FromHour: 30, ToHour: 60, Faults: Faults{DropProb: 1}},
	}}
	out, err := readAll(t, sc.Wrap(0, "v", bytes.NewReader(feed)))
	if err != nil && err != io.EOF {
		t.Fatalf("read: %v", err)
	}
	var want []row
	for _, rw := range all {
		if rw.hour < 30 || rw.hour >= 60 {
			want = append(want, rw)
		}
	}
	got, batches := deliveredRows(t, out)
	if !slices.Equal(got, want) {
		t.Fatalf("delivered %d rows, want the %d outside the window", len(got), len(want))
	}
	// Day 1's two device walks each cross hour 30 (batch frames cut into
	// runs), and day 2's cross hour 60.
	if batches <= 2 {
		t.Fatalf("window should cut each batch into runs, got %d batch frames", batches)
	}
}

// TestKillDeliversRowsBeforeHour: a kill at hour H delivers every row
// before the first row at or after H, and nothing after it.
func TestKillDeliversRowsBeforeHour(t *testing.T) {
	feed, all := weekFeed(t)
	sc := FeedDeath(9, "", 30, studyStart)
	out, err := readAll(t, sc.Wrap(0, "v", bytes.NewReader(feed)))
	if !errors.Is(err, ErrInjectedDisconnect) {
		t.Fatalf("want ErrInjectedDisconnect, got %v", err)
	}
	cut := slices.IndexFunc(all, func(rw row) bool { return rw.hour >= 30 })
	if got, _ := deliveredRows(t, out); !slices.Equal(got, all[:cut]) {
		t.Fatalf("delivered %d rows, want the %d before the first hour-30 row", len(got), cut)
	}
}

// TestUniformKeepsFrames: with no hour window, batch frames pass
// through whole — the frame count is unchanged, and each corruption is
// one bit flip inside one original frame.
func TestUniformKeepsFrames(t *testing.T) {
	feed, _ := weekFeed(t)
	sc := Uniform(4, 0.5)
	out, err := readAll(t, sc.Wrap(0, "v", bytes.NewReader(feed)))
	if err != nil && err != io.EOF {
		t.Fatalf("read: %v", err)
	}
	if len(out) != len(feed) {
		t.Fatalf("damaged stream is %d bytes, clean %d", len(out), len(feed))
	}
	var frames, damaged int64
	for off := 0; off < len(feed); frames++ {
		end := off + 7 + int(binary.BigEndian.Uint32(feed[off+3:]))
		flipped := 0
		for i := off; i < end; i++ {
			flipped += bits.OnesCount8(feed[i] ^ out[i])
		}
		if flipped > 1 {
			t.Fatalf("frame at %d has %d flipped bits, want at most one", off, flipped)
		}
		damaged += int64(flipped)
		off = end
	}
	if frames != 5 {
		t.Fatalf("clean feed has %d frames, want hello + 2×(batch+flush)", frames)
	}
	if c := sc.Totals(); c.Corrupted == 0 || c.Corrupted != damaged {
		t.Fatalf("corrupted = %d, frames with a flipped bit = %d", c.Corrupted, damaged)
	}
}

func TestShortReadsContentNeutral(t *testing.T) {
	feed := cleanFeed(t, 24)
	damaged := func(short bool) []byte {
		sc := &Scenario{Seed: 11, Rules: []Rule{{Stream: -1, Faults: Faults{
			CorruptProb: 0.2, ShortReads: short,
		}}}}
		out, err := readAll(t, sc.Wrap(0, "v", bytes.NewReader(feed)))
		if err != nil && err != io.EOF {
			t.Fatalf("read: %v", err)
		}
		return out
	}
	if !bytes.Equal(damaged(false), damaged(true)) {
		t.Fatalf("short reads must not change stream content")
	}
	// And short reads really are short.
	sc := &Scenario{Seed: 11, Rules: []Rule{{Stream: -1, Faults: Faults{ShortReads: true}}}}
	r := sc.Wrap(0, "v", bytes.NewReader(feed))
	buf := make([]byte, 4096)
	n, err := r.Read(buf)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if n > 7 {
		t.Fatalf("short read returned %d bytes", n)
	}
}

// Uniform is the workhorse scenario: corrupt every stream's frames with
// probability p for the whole study.
func Uniform(seed int64, p float64) *Scenario {
	return &Scenario{Seed: seed, Rules: []Rule{{Stream: -1, Faults: Faults{CorruptProb: p}}}}
}

// FeedDeath returns a scheduled-disconnect scenario: the named
// vantage's feed dies at the given study hour.
func FeedDeath(seed int64, vantage string, hour int, start time.Time) *Scenario {
	return &Scenario{Seed: seed, Start: start, Rules: []Rule{
		{Stream: -1, Vantage: vantage, FromHour: hour, Faults: Faults{Kill: true}},
	}}
}
