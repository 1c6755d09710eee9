package hitlist

import (
	"net/netip"
	"testing"
)

func e(addr string, ports ...uint16) Entry {
	return Entry{Addr: netip.MustParseAddr(addr), Ports: ports}
}

func TestNewDedupAndMerge(t *testing.T) {
	h := New([]Entry{
		e("2001:db8::2", 443),
		e("2001:db8::1", 8883),
		e("2001:db8::2", 8883, 443), // merges with first
	})
	if h.Len() != 2 {
		t.Fatalf("len = %d", h.Len())
	}
	entries := h.entries
	if entries[0].Addr != netip.MustParseAddr("2001:db8::1") {
		t.Fatal("entries not sorted")
	}
	merged := entries[1]
	if len(merged.Ports) != 2 || merged.Ports[0] != 443 || merged.Ports[1] != 8883 {
		t.Fatalf("merged ports = %v", merged.Ports)
	}
}

func TestNewRejectsIPv4AndInvalid(t *testing.T) {
	h := New([]Entry{
		{Addr: netip.MustParseAddr("1.2.3.4"), Ports: []uint16{443}},
		{},
		e("2001:db8::1", 443),
	})
	if h.Len() != 1 {
		t.Fatalf("len = %d, IPv4/invalid should be dropped", h.Len())
	}
}

func TestHasPort(t *testing.T) {
	entry := e("2001:db8::1", 443, 8883)
	if !entry.HasPort(443) || entry.HasPort(80) {
		t.Fatal("HasPort broken")
	}
}

func TestWithIoTPorts(t *testing.T) {
	h := New([]Entry{
		e("2001:db8::1", 22),         // not an IoT port
		e("2001:db8::2", 8883),       // MQTT over TLS
		e("2001:db8::3", 5671, 9999), // AMQP + noise
	})
	iot := h.WithIoTPorts()
	if len(iot) != 2 {
		t.Fatalf("iot entries = %d", len(iot))
	}
}

func TestSampleCoverage(t *testing.T) {
	var candidates []Entry
	for i := 0; i < 400; i++ {
		var b [16]byte
		b[0], b[1] = 0x20, 0x01
		b[14], b[15] = byte(i>>8), byte(i)
		candidates = append(candidates, Entry{Addr: netip.AddrFrom16(b), Ports: []uint16{443}})
	}
	full := Sample(candidates, 1.0, 1)
	if full.Len() != 400 {
		t.Fatalf("full = %d", full.Len())
	}
	none := Sample(candidates, 0, 1)
	if none.Len() != 0 {
		t.Fatalf("none = %d", none.Len())
	}
	half := Sample(candidates, 0.5, 1)
	if half.Len() < 140 || half.Len() > 260 {
		t.Fatalf("half = %d", half.Len())
	}
	// Deterministic.
	again := Sample(candidates, 0.5, 1)
	if again.Len() != half.Len() {
		t.Fatal("sampling not deterministic")
	}
	other := Sample(candidates, 0.5, 2)
	if other.Len() == half.Len() {
		inHalf := map[netip.Addr]bool{}
		for _, entry := range half.entries {
			inHalf[entry.Addr] = true
		}
		same := 0
		for _, entry := range other.entries {
			if inHalf[entry.Addr] {
				same++
			}
		}
		if same == other.Len() {
			t.Fatal("different seeds drew identical samples")
		}
	}
}
