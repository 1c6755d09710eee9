package isp

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"io"
	"testing"

	"iotmap/internal/geo"
	"iotmap/internal/netflow"
	"iotmap/internal/simrand"
	"iotmap/internal/world"
)

// The figure goldens round their values, so a draw that moves inside the
// simulator can hide behind them. These fingerprints hash the simulator's
// raw output instead — every record field, every line completion, every
// exported byte — and were computed before the row-native emitter and the
// per-Network draw tables existed. A change that moves any seeded draw,
// or the order of draws, changes a hash here.

// fingerprintWorld is the world every fingerprint network is built on.
func fingerprintWorld(t testing.TB) *world.World {
	t.Helper()
	w, err := world.Build(world.Config{Seed: 11, Scale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// outageModifier is a FlowModifier that draws from its rng, drops some
// flows, and rescales others, so the fingerprint covers the modifier
// stream's seeding and the order of its draws.
func outageModifier(rng *simrand.Source, _, hour int, srv *world.Server, down, up uint64) (uint64, uint64, bool) {
	if srv.Region.Continent == geo.NorthAmerica && rng.Bool(0.5) {
		return 0, 0, false
	}
	if hour%5 == 0 {
		return down / 2, up * 2, true
	}
	return down, up, true
}

// recordStreamHash hashes SimulateLines at the given worker count, shard
// streams concatenated in shard order (which is line order), with a
// marker per completed line.
func recordStreamHash(n *Network, workers int) (string, int) {
	type ev struct {
		rec  netflow.Record
		line int // -1 for a record, else a completed line's ID
	}
	shards := make([][]ev, workers)
	n.SimulateLines(workers,
		func(shard int) func(netflow.Record) {
			return func(r netflow.Record) { shards[shard] = append(shards[shard], ev{rec: r, line: -1}) }
		},
		func(shard int, l *Line) { shards[shard] = append(shards[shard], ev{line: l.ID}) },
	)
	h := sha256.New()
	var buf []byte
	records := 0
	for _, evs := range shards {
		for _, e := range evs {
			buf = buf[:0]
			if e.line >= 0 {
				buf = binary.BigEndian.AppendUint32(append(buf, 'L'), uint32(e.line))
				h.Write(buf)
				continue
			}
			r := e.rec
			records++
			src, dst := r.Src.As16(), r.Dst.As16()
			buf = append(append(append(buf, 'R'), src[:]...), dst[:]...)
			buf = binary.BigEndian.AppendUint16(buf, r.SrcPort)
			buf = binary.BigEndian.AppendUint16(buf, r.DstPort)
			buf = append(buf, r.Proto)
			buf = binary.BigEndian.AppendUint64(buf, r.Bytes)
			buf = binary.BigEndian.AppendUint64(buf, r.Packets)
			buf = binary.BigEndian.AppendUint64(buf, uint64(r.Start.UnixNano()))
			h.Write(buf)
		}
	}
	return hex.EncodeToString(h.Sum(nil)), records
}

// TestRecordStreamFingerprints pins the SimulateLines record stream of
// three networks at 1 and 3 workers: a plain one, one with many scanners
// and an outage modifier, and one whose sampling rate is far above the
// table the sampler keeps of exp(-λ), so its large flows take the
// untabulated path.
func TestRecordStreamFingerprints(t *testing.T) {
	w := fingerprintWorld(t)
	cases := []struct {
		name    string
		cfg     Config
		mod     FlowModifier
		records int
		hash    string
	}{
		{"plain", Config{Seed: 11, Lines: 600}, nil, 9935, "bbcb5f8d841d0dbf1bca6efb029b4e7eaa2c88f4bd425a646331d20b5c8e6e4b"},
		{"scanners+modifier", Config{Seed: 13, Lines: 600, ScannerFraction: 0.03}, outageModifier, 10265, "e690916c4e7cf9bfe8a6837c695bdeb9afaa11fb50ebdfcd6a6475807029c1ea"},
		{"rate-above-table", Config{Seed: 17, Lines: 1500, IoTPenetration: 0.6, SamplingRate: 2000}, nil, 12293, "978cb6f91d35f86555e6ee68209d23fe967fc1a858de99ac2a1fdbb833f4d577"},
	}
	for _, c := range cases {
		n, err := NewNetwork(c.cfg, w)
		if err != nil {
			t.Fatal(err)
		}
		n.Modifier = c.mod
		for _, workers := range []int{1, 3} {
			got, records := recordStreamHash(n, workers)
			if got != c.hash || records != c.records {
				t.Errorf("%s at %d workers: %d records, sha256 %s; pinned %d records, %s", c.name, workers, records, got, c.records, c.hash)
			}
		}
	}
}

// TestWireStreamFingerprints pins the exported dictionary streams, byte
// for byte, at 1 and 3 streams.
func TestWireStreamFingerprints(t *testing.T) {
	w := fingerprintWorld(t)
	n, err := NewNetwork(Config{Seed: 13, Lines: 600, ScannerFraction: 0.03}, w)
	if err != nil {
		t.Fatal(err)
	}
	n.Modifier = outageModifier
	for _, c := range []struct {
		streams int
		hash    []string
	}{
		{1, []string{"da80a6a3cea35d53bded51a5fc201927773407f9169ba5b9a236d0b3266b4cc5"}},
		{3, []string{
			"0ee4673142c057466edf0607c2c1768e79fdab2a1fe2e29b8c2d8bc7820cf3a0",
			"de93962290b33f63b31411e9084e1e050dcc4208cae20328471778779d5d5b07",
			"8f764a6fd5ef8470422a7b0ab174e8a56a56afe3ff37a271bc7b33d3e19b6c44",
		}},
	} {
		bufs := make([]*bytes.Buffer, c.streams)
		writers := make([]io.Writer, c.streams)
		for i := range bufs {
			bufs[i] = &bytes.Buffer{}
			writers[i] = bufs[i]
		}
		if _, err := n.SimulateLinesToWire(writers, 0); err != nil {
			t.Fatal(err)
		}
		for i, b := range bufs {
			sum := sha256.Sum256(b.Bytes())
			if got := hex.EncodeToString(sum[:]); got != c.hash[i] {
				t.Errorf("%d streams, stream %d (%d bytes): sha256 %s, pinned %s", c.streams, i, b.Len(), got, c.hash[i])
			}
		}
	}
}
