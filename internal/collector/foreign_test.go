package collector

import (
	"bytes"
	"errors"
	"io"
	"net"
	"net/netip"
	"slices"
	"testing"
	"time"

	"iotmap/internal/isp"
	"iotmap/internal/netflow"
)

// v5Feed frames the fixture week the way a foreign exporter relaying
// NetFlow v5 over a stream would: per line, the IPv4 records as v5
// packets of up to 30, the IPv6 records (which v5 cannot carry) as one
// v6 frame, then a flush.
func (f *fixture) v5Feed(t testing.TB, streams int) []io.Reader {
	t.Helper()
	si, err := netflow.PackSamplingInterval(f.net.Cfg.SamplingRate)
	if err != nil {
		t.Fatal(err)
	}
	bufs := make([][]byte, streams)
	v4 := make([][]netflow.Record, streams)
	v6 := make([][]netflow.Record, streams)
	errs := make([]error, streams)
	f.net.SimulateLines(streams,
		func(s int) func(netflow.Record) {
			return func(r netflow.Record) {
				if r.IsV4() {
					v4[s] = append(v4[s], r)
				} else {
					v6[s] = append(v6[s], r)
				}
			}
		},
		func(s int, _ *isp.Line) {
			out := bufs[s]
			var err error
			for off := 0; off < len(v4[s]) && err == nil; off += netflow.V5MaxRecords {
				pkt := v4[s][off:min(off+netflow.V5MaxRecords, len(v4[s]))]
				out, _, err = netflow.AppendV5Frame(out, netflow.V5Header{SamplingInterval: si}, pkt)
			}
			if len(v6[s]) > 0 && err == nil {
				out, err = netflow.AppendV6Frame(out, v6[s])
			}
			errs[s] = errors.Join(errs[s], err)
			bufs[s] = netflow.AppendFlushFrame(out)
			v4[s], v6[s] = v4[s][:0], v6[s][:0]
		})
	readers := make([]io.Reader, streams)
	for s, buf := range bufs {
		if errs[s] != nil {
			t.Fatal(errs[s])
		}
		readers[s] = bytes.NewReader(buf)
	}
	return readers
}

// TestFramedV5MatchesMemory keeps the foreign-feed decoders honest: the
// fixture week framed as v5 packets plus v6 frames folds to exactly the
// memory-mode analysis, at one and at several streams.
func TestFramedV5MatchesMemory(t *testing.T) {
	f := buildFixture(t, 400)
	ccRef, colRef := f.memoryRun(4)
	for _, streams := range []int{1, 3} {
		col, err := New(Config{Index: f.idx, Days: f.w.Days, Opts: f.opts})
		if err != nil {
			t.Fatal(err)
		}
		if err := col.IngestStreams(f.v5Feed(t, streams)); err != nil {
			t.Fatal(err)
		}
		cc, fc := col.Finalize()
		assertSameAnalysis(t, "v5-vs-memory", ccRef, cc, colRef, fc)
		st := col.Stats()
		if st.V5Packets == 0 || st.V6Records == 0 || st.BatchFrames != 0 {
			t.Fatalf("streams=%d: feed shape off: %+v", streams, st)
		}
		if st.RateMismatches != 0 || st.SaturatedCounters != 0 {
			t.Fatalf("streams=%d: clean v5 feed degraded: %+v", streams, st)
		}
	}
}

// TestServeUDPMarksHours: a UDP source's study hours — from v5 and from
// templated datagrams alike — land in its HourBits, so degraded-coverage
// reporting sees UDP feeds.
func TestServeUDPMarksHours(t *testing.T) {
	f := buildFixture(t, 50)
	col, err := New(Config{Index: f.idx, Days: f.w.Days, Opts: f.opts})
	if err != nil {
		t.Fatal(err)
	}
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- col.ServeUDP(pc) }()

	backend := v4Backend(t, f.w)
	at := func(hour int) netflow.Record {
		return netflow.Record{
			Src: backend.Addr, Dst: netip.MustParseAddr("95.0.0.1"),
			SrcPort: 8883, DstPort: 40000, Proto: netflow.ProtoTCP,
			Bytes: 500, Packets: 3, Start: f.w.Days[0].Add(time.Duration(hour) * time.Hour),
		}
	}
	v5, err := netflow.EncodeV5(netflow.V5Header{}, []netflow.Record{at(2), at(5)})
	if err != nil {
		t.Fatal(err)
	}
	src, err := net.Dial("udp", pc.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	for _, pkt := range [][]byte{v5, netflow.AppendV9Packet(nil, 7, 0, true, []netflow.Record{at(9)})} {
		if _, err := src.Write(pkt); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for col.Stats().V4Records != 3 {
		if time.Now().After(deadline) {
			t.Fatalf("datagrams never arrived: %+v", col.Stats())
		}
		time.Sleep(10 * time.Millisecond)
	}
	pc.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	ss := col.StreamStats()
	if len(ss) != 1 {
		t.Fatalf("stream stats = %d entries, want 1", len(ss))
	}
	var hours []int
	for h := 0; h < ss[0].HoursTotal; h++ {
		if ss[0].HourBits[h>>6]&(1<<(h&63)) != 0 {
			hours = append(hours, h)
		}
	}
	if !slices.Equal(hours, []int{2, 5, 9}) || ss[0].HoursCovered != 3 {
		t.Fatalf("covered hours %v (%d), want [2 5 9]", hours, ss[0].HoursCovered)
	}
}
