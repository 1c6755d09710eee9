package bgpstream

import (
	"net/netip"
	"testing"
	"time"

	"iotmap/internal/asdb"
	"iotmap/internal/world"
)

func days() []time.Time { return world.StudyDays() }

func TestGenerateCounts(t *testing.T) {
	feed, err := Generate(PaperWeek(days()), 9)
	if err != nil {
		t.Fatal(err)
	}
	c := feed.Count()
	if c[Leak] != 10 || c[Hijack] != 40 || c[ASOutage] != 166 {
		t.Fatalf("counts = %v", c)
	}
	if len(feed.Events()) != 216 {
		t.Fatalf("events = %d", len(feed.Events()))
	}
	// Time-ordered.
	evs := feed.Events()
	for i := 1; i < len(evs); i++ {
		if evs[i].At.Before(evs[i-1].At) {
			t.Fatal("events not time ordered")
		}
	}
}

func TestGenerateNeedsWindow(t *testing.T) {
	if _, err := Generate(GenerateConfig{Leaks: 1}, 1); err == nil {
		t.Fatal("empty window accepted")
	}
}

func TestNoImpactOnPaperWeek(t *testing.T) {
	w, err := world.Build(world.Config{Seed: 2, Scale: 0.03})
	if err != nil {
		t.Fatal(err)
	}
	avoid := map[asdb.ASN]struct{}{}
	for _, as := range w.AS.ASes() {
		avoid[as.Number] = struct{}{}
	}
	cfg := PaperWeek(days())
	cfg.AvoidASNs = avoid
	feed, err := Generate(cfg, 9)
	if err != nil {
		t.Fatal(err)
	}
	var addrs []netip.Addr
	for _, s := range w.AllServers() {
		addrs = append(addrs, s.Addr)
	}
	impacts := feed.CheckImpact(addrs, w.AS)
	if len(impacts) != 0 {
		t.Fatalf("unexpected impacts: %+v", impacts)
	}
}

func TestWhatIfHijackIsDetected(t *testing.T) {
	w, err := world.Build(world.Config{Seed: 2, Scale: 0.03})
	if err != nil {
		t.Fatal(err)
	}
	victim := w.AllServers()[0]
	pfx := netip.PrefixFrom(victim.Addr, 24).Masked()
	if victim.Addr.Is6() {
		pfx = netip.PrefixFrom(victim.Addr, 56).Masked()
	}
	feed := NewFeed([]Event{WhatIfHijack(pfx, days()[0])})
	impacts := feed.CheckImpact([]netip.Addr{victim.Addr}, w.AS)
	if len(impacts) != 1 || impacts[0].Addr != victim.Addr {
		t.Fatalf("impacts = %+v", impacts)
	}
}

func TestASOutageImpact(t *testing.T) {
	w, err := world.Build(world.Config{Seed: 2, Scale: 0.03})
	if err != nil {
		t.Fatal(err)
	}
	victim := w.AllServers()[0]
	feed := NewFeed([]Event{{Kind: ASOutage, ASN: victim.ASN, At: days()[0]}})
	impacts := feed.CheckImpact([]netip.Addr{victim.Addr}, w.AS)
	if len(impacts) != 1 || impacts[0].ASN != victim.ASN {
		t.Fatalf("impacts = %+v", impacts)
	}
}

// TestCheckImpactMatchesCheckImpactAt: the static-table path resolves
// origins once into an AS set; it must report exactly what the per-event
// time-aware path reports over the same table — background events,
// outages of hosted ASes (one Impact each, in event order), outages of
// foreign ASes (none) and a prefix event.
func TestCheckImpactMatchesCheckImpactAt(t *testing.T) {
	w, err := world.Build(world.Config{Seed: 2, Scale: 0.03})
	if err != nil {
		t.Fatal(err)
	}
	feed, err := Generate(PaperWeek(days()), 9)
	if err != nil {
		t.Fatal(err)
	}
	var addrs []netip.Addr
	hosted := map[asdb.ASN]struct{}{}
	for _, s := range w.AllServers() {
		addrs = append(addrs, s.Addr)
		hosted[s.ASN] = struct{}{}
	}
	events := feed.Events()
	injected := 0
	for asn := range hosted {
		events = append(events,
			Event{Kind: ASOutage, ASN: asn, At: days()[injected%len(days())].Add(time.Duration(injected) * time.Minute)})
		injected++
	}
	foreign := asdb.ASN(64999)
	if _, clash := hosted[foreign]; clash {
		t.Fatalf("AS%d hosts a backend; pick another foreign AS", foreign)
	}
	events = append(events,
		Event{Kind: ASOutage, ASN: foreign, At: days()[1]},
		WhatIfHijack(netip.PrefixFrom(addrs[0], addrs[0].BitLen()), days()[2]))
	feed = NewFeed(events)

	got := feed.CheckImpact(addrs, w.AS)
	want := feed.CheckImpactAt(addrs, tableOrigin(w.AS))
	if len(got) != injected+1 {
		t.Fatalf("impacts = %d, want %d hosted outages + 1 hijack", len(got), injected)
	}
	if len(got) != len(want) {
		t.Fatalf("CheckImpact found %d impacts, CheckImpactAt %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("impact %d differs: %+v vs %+v", i, got[i], want[i])
		}
	}
}

func TestKindString(t *testing.T) {
	if Leak.String() != "bgp-leak" || Hijack.String() != "possible-hijack" ||
		ASOutage.String() != "as-outage" || Kind(9).String() != "unknown" {
		t.Fatal("Kind.String mismatch")
	}
}

// tableOrigin adapts a static asdb table to the time-aware interface.
func tableOrigin(table *asdb.Table) OriginAt {
	return func(a netip.Addr, _ time.Time) (asdb.ASN, bool) {
		return table.Origin(a)
	}
}
