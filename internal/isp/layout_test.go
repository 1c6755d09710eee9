package isp

import (
	"testing"
	"unsafe"

	"iotmap/internal/geo"
)

// Provider is the device's provider ID, its class's.
func (d *Device) Provider() string { return d.class.prof.ProviderID }

// Continent is the continent the device homes its backends to, its
// class's.
func (d *Device) Continent() geo.Continent { return d.class.cont }

// TestLineLayout pins the resident population's layout and the address
// plan it leans on: a line stores no address, so every line's V4 and V6
// must come back through LineSlot as its own two slots, under the first
// and the last vantage of the plan.
func TestLineLayout(t *testing.T) {
	if got := unsafe.Sizeof(Line{}); got > 48 {
		t.Errorf("Line is %d bytes, want at most 48", got)
	}
	if got := unsafe.Sizeof(Device{}); got > 16 {
		t.Errorf("Device is %d bytes, want at most 16", got)
	}
	w, base := testNetwork(t)
	last, err := NewNetwork(Config{Seed: 11, Lines: 4000, VantageID: maxVantageID}, w)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []*Network{base, last} {
		v6 := 0
		for i := range n.Lines {
			l := &n.Lines[i]
			if l.ID != i {
				t.Fatalf("vantage %d: line %d carries ID %d", n.Cfg.VantageID, i, l.ID)
			}
			vantage, slot, ok := LineSlot(l.V4())
			if !ok || vantage != n.Cfg.VantageID || slot != uint32(2*l.ID) {
				t.Fatalf("vantage %d line %d: V4 %v reverses to (%d, %d, %v)", n.Cfg.VantageID, l.ID, l.V4(), vantage, slot, ok)
			}
			if l.HasV6() != l.V6().IsValid() {
				t.Fatalf("vantage %d line %d: HasV6 %v but V6 %v", n.Cfg.VantageID, l.ID, l.HasV6(), l.V6())
			}
			if !l.HasV6() {
				continue
			}
			v6++
			vantage, slot, ok = LineSlot(l.V6())
			if !ok || vantage != n.Cfg.VantageID || slot != uint32(2*l.ID+1) {
				t.Fatalf("vantage %d line %d: V6 %v reverses to (%d, %d, %v)", n.Cfg.VantageID, l.ID, l.V6(), vantage, slot, ok)
			}
		}
		if v6 == 0 || v6 == len(n.Lines) {
			t.Fatalf("vantage %d: %d of %d lines hold v6; the flag is untested", n.Cfg.VantageID, v6, len(n.Lines))
		}
	}
}
