package collector

import (
	"net"
	"net/netip"
	"slices"
	"testing"
	"time"

	"iotmap/internal/netflow"
)

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
