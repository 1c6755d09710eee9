package iotmap

import (
	"context"
	"net/netip"
	"reflect"
	"testing"

	"iotmap/internal/core/discovery"
	"iotmap/internal/core/flows"
	"iotmap/internal/geo"
)

// backendEntry is one backend as handed to flows.BackendIndex.Add.
type backendEntry struct {
	alias     string
	cont      geo.Continent
	region    string
	certFound bool
}

// eachBackendFromUnion is the historical builder, kept as the oracle: it
// rebuilds every provider's week union as an address-keyed map only to
// ask the dedicated addresses for their certificate bit.
func eachBackendFromUnion(s *System, add func(netip.Addr, string, geo.Continent, string, bool)) {
	for _, p := range s.Patterns {
		id := p.ProviderID()
		alias := s.World.AliasOf(id)
		res := s.Discovery[id]
		union := map[netip.Addr]discovery.Source{}
		for aid, a := range res.Addrs() {
			union[a] = res.Sources(uint32(aid))
		}
		located := s.Located[id]
		for _, a := range s.Dedicated[id] {
			loc := located[a]
			certFound := union[a].Has(discovery.SrcCert)
			add(a, alias, loc.Location.Continent, loc.Location.Region, certFound)
		}
	}
}

// TestBackendIndexMatchesUnionOracle: the index ValidateAndLocate built
// from the certificate bits it recorded is the index the union-map
// builder makes. The index exports little beyond Size, so the
// comparison is a deep one: the same address → (alias, continent,
// region, certFound) entries and the same dense ID assignment.
func TestBackendIndexMatchesUnionOracle(t *testing.T) {
	for _, seed := range []int64{3, 47} {
		sys, err := New(Config{Seed: seed, Scale: 0.05, Lines: 500, SkipLiveScan: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(sys.Close)
		if err := sys.Discover(context.Background()); err != nil {
			t.Fatal(err)
		}
		if err := sys.ValidateAndLocate(); err != nil {
			t.Fatal(err)
		}
		want := map[netip.Addr]backendEntry{}
		oracle := flows.NewBackendIndex()
		eachBackendFromUnion(sys, func(a netip.Addr, alias string, cont geo.Continent, region string, certFound bool) {
			want[a] = backendEntry{alias, cont, region, certFound}
			oracle.Add(a, alias, cont, region, certFound)
		})
		oracle.Build()

		idx := sys.Index
		if idx.Size() != len(want) {
			t.Fatalf("seed %d: index holds %d addresses, the oracle %d", seed, idx.Size(), len(want))
		}
		cert := 0
		for _, w := range want {
			if w.certFound {
				cert++
			}
		}
		if !reflect.DeepEqual(idx, oracle) {
			t.Errorf("seed %d: the index's alias, continent, region or certFound columns differ from the oracle's", seed)
		}
		if cert == 0 || cert == len(want) {
			t.Fatalf("seed %d: %d of %d addresses certificate-found; the comparison needs both kinds", seed, cert, len(want))
		}
	}
}
