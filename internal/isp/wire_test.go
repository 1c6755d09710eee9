package isp

import (
	"bytes"
	"io"
	"net/netip"
	"testing"
	"time"

	"iotmap/internal/netflow"
	"iotmap/internal/world"
)

func wireNetwork(t testing.TB, lines int) *Network {
	t.Helper()
	w, err := world.Build(world.Config{Seed: 11, Scale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	n, err := NewNetwork(Config{Seed: 11, Lines: lines}, w)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func exportStreams(t testing.TB, n *Network, streams int) ([]*bytes.Buffer, WireStats) {
	t.Helper()
	bufs := make([]*bytes.Buffer, streams)
	writers := make([]io.Writer, streams)
	for i := range bufs {
		bufs[i] = &bytes.Buffer{}
		writers[i] = bufs[i]
	}
	stats, err := n.SimulateLinesToWire(writers, 0)
	if err != nil {
		t.Fatal(err)
	}
	return bufs, stats
}

// TestWireExportDeterministic: the exported byte streams are a pure
// function of (seed, config, stream count) — two exports are identical
// byte for byte, stream by stream.
func TestWireExportDeterministic(t *testing.T) {
	n := wireNetwork(t, 400)
	a, astats := exportStreams(t, n, 3)
	b, bstats := exportStreams(t, n, 3)
	if astats != bstats {
		t.Fatalf("stats drifted: %+v vs %+v", astats, bstats)
	}
	for i := range a {
		if !bytes.Equal(a[i].Bytes(), b[i].Bytes()) {
			t.Fatalf("stream %d not byte-identical across exports", i)
		}
	}
	if astats.Flushes != 400 {
		t.Fatalf("flushes = %d, want one per line", astats.Flushes)
	}
	if astats.V4Records == 0 || astats.V6Records == 0 {
		t.Fatalf("missing a family on the wire: %+v", astats)
	}
}

// wireRow is one record as a dictionary stream carries it: addresses
// resolved, the subscriber line told apart from the backend, and only
// the backend-side port kept.
type wireRow struct {
	line, backend netip.Addr
	down          bool
	start         time.Time
	port          uint16
	proto         uint8
	bytes, pkts   uint64
}

func rowOf(r netflow.Record) wireRow {
	if _, _, ok := LineSlot(r.Dst); ok {
		return wireRow{r.Dst, r.Src, true, r.Start, r.SrcPort, r.Proto, r.Bytes, r.Packets}
	}
	return wireRow{r.Src, r.Dst, false, r.Start, r.DstPort, r.Proto, r.Bytes, r.Packets}
}

// TestWireRoundTripMatchesSimulate: decoding every stream in shard
// order reproduces the one-worker record feed exactly — same rows,
// same order, nothing lost or reordered inside a shard — and each
// stream's hello advertises the sampling rate and study epoch.
func TestWireRoundTripMatchesSimulate(t *testing.T) {
	n := wireNetwork(t, 300)
	var want []wireRow
	for _, r := range recordFeed(n) {
		want = append(want, rowOf(r))
	}

	bufs, stats := exportStreams(t, n, 4)
	var got []wireRow
	for _, buf := range bufs {
		fr := netflow.NewFrameReader(buf)
		var epoch int64
		var lines, backs []netip.Addr
		for {
			f, err := fr.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			switch f.Type {
			case netflow.FrameHello:
				var rate uint32
				if rate, epoch, err = netflow.DecodeHelloPayload(f.Payload); err != nil {
					t.Fatal(err)
				}
				if rate != n.Cfg.SamplingRate || epoch != n.World.Days[0].Unix() {
					t.Fatalf("hello advertises rate %d epoch %d", rate, epoch)
				}
			case netflow.FrameLineDict:
				if _, lines, err = netflow.DecodeDictPayload(f.Payload, lines); err != nil {
					t.Fatal(err)
				}
			case netflow.FrameBackendDict:
				if _, backs, err = netflow.DecodeDictPayload(f.Payload, backs); err != nil {
					t.Fatal(err)
				}
			case netflow.FrameBatch:
				var b netflow.RecordBatch
				if err := netflow.DecodeBatchPayload(f.Payload, &b); err != nil {
					t.Fatal(err)
				}
				for i := 0; i < b.Len(); i++ {
					got = append(got, wireRow{
						lines[b.Line[i]], backs[b.Backend[i]], b.Down[i],
						time.Unix(epoch+int64(b.Hour[i])*3600, 0).UTC(),
						b.Port[i], b.Proto[i], b.Bytes[i], b.Packets[i],
					})
				}
			}
		}
	}
	if uint64(len(got)) != stats.V4Records+stats.V6Records {
		t.Fatalf("decoded %d records, stats say %d", len(got), stats.V4Records+stats.V6Records)
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d records, the record feed has %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d drifted over the wire:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
}

// TestWireExportWriteError: a dead stream must not wedge the
// simulation; the error is reported, the other streams complete.
func TestWireExportWriteError(t *testing.T) {
	n := wireNetwork(t, 200)
	good := &bytes.Buffer{}
	_, err := n.SimulateLinesToWire([]io.Writer{failWriter{}, good}, 4)
	if err == nil {
		t.Fatal("write error swallowed")
	}
	if good.Len() == 0 {
		t.Fatal("healthy stream starved by the failing one")
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, io.ErrClosedPipe }
