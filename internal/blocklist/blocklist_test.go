package blocklist

import (
	"net/netip"
	"testing"

	"iotmap/internal/world"
)

func TestAggregateMerge(t *testing.T) {
	a1 := netip.MustParseAddr("192.0.2.1")
	a2 := netip.MustParseAddr("192.0.2.2")
	agg := NewAggregate([]List{
		{Name: "proxies", Reason: ReasonProxy, Entries: map[netip.Addr]struct{}{a1: {}}},
		{Name: "attacks", Reason: ReasonAttack, Entries: map[netip.Addr]struct{}{a1: {}, a2: {}}},
	})
	if agg.Size() != 2 || agg.Lists() != 2 {
		t.Fatalf("size=%d lists=%d", agg.Size(), agg.Lists())
	}
	if rs := agg.reasons[a1]; len(rs) != 2 {
		t.Fatalf("a1 reasons = %v", rs)
	}
	if rs := agg.reasons[netip.MustParseAddr("192.0.2.9")]; rs != nil {
		t.Fatal("unlisted address has reasons")
	}
}

func TestMatch(t *testing.T) {
	a1 := netip.MustParseAddr("16.0.0.1")
	agg := NewAggregate([]List{
		{Name: "l", Reason: ReasonMalware, Entries: map[netip.Addr]struct{}{a1: {}}},
	})
	hits := agg.Match(
		[]netip.Addr{a1, netip.MustParseAddr("16.0.0.2")},
		func(netip.Addr) string { return "amazon" },
	)
	if len(hits) != 1 || hits[0].Provider != "amazon" || hits[0].Reasons[0] != ReasonMalware {
		t.Fatalf("hits = %+v", hits)
	}
}

func TestBuildFireHOL(t *testing.T) {
	w, err := world.Build(world.Config{Seed: 8, Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	agg := BuildFireHOL(w, 8)
	if agg.Lists() != 67 {
		t.Fatalf("lists = %d, want 67", agg.Lists())
	}
	if agg.Size() < 67*150 {
		t.Fatalf("aggregate suspiciously small: %d", agg.Size())
	}
	var addrs []netip.Addr
	for _, s := range w.AllServers() {
		addrs = append(addrs, s.Addr)
	}
	hits := agg.Match(addrs, func(a netip.Addr) string {
		if s, ok := w.ServerAt(a); ok {
			return s.Provider
		}
		return "?"
	})
	if len(hits) == 0 {
		t.Fatal("no backend IPs on the aggregate")
	}
	per := map[string]int{}
	for _, h := range hits {
		per[h.Provider]++
	}
	// The six §6.2 providers — and only those — may appear.
	allowed := map[string]bool{"baidu": true, "microsoft": true, "sap": true, "google": true, "amazon": true, "alibaba": true}
	for id := range per {
		if !allowed[id] {
			t.Fatalf("unexpected provider on blocklist: %s (%v)", id, per)
		}
	}
	for id := range allowed {
		if per[id] == 0 {
			t.Fatalf("missing §6.2 provider %s: %v", id, per)
		}
	}
}

func TestBuildFireHOLDeterministic(t *testing.T) {
	w, err := world.Build(world.Config{Seed: 8, Scale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	a := BuildFireHOL(w, 8)
	b := BuildFireHOL(w, 8)
	if a.Size() != b.Size() {
		t.Fatalf("non-deterministic: %d vs %d", a.Size(), b.Size())
	}
}
