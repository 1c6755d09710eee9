package iotmap

import (
	"context"
	"net/netip"
	"testing"

	"iotmap/internal/core/discovery"
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
// recomputes every provider's Union() only to ask the dedicated
// addresses for their certificate bit.
func eachBackendFromUnion(s *System, add func(netip.Addr, string, geo.Continent, string, bool)) {
	for _, p := range s.Patterns {
		id := p.ProviderID()
		alias := s.World.AliasOf(id)
		union := s.Discovery[id].Union()
		located := s.Located[id]
		for _, a := range s.Dedicated[id] {
			loc := located[a]
			certFound := union[a] != nil && union[a].Sources.Has(discovery.SrcCert)
			add(a, alias, loc.Location.Continent, loc.Location.Region, certFound)
		}
	}
}

// TestBackendIndexMatchesUnionOracle: the index built from the
// certificate bits ValidateAndLocate recorded is the index the
// Union()-based builder makes — same size, and for every address the
// same alias, continent, region and certFound.
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
		collect := func(each func(func(netip.Addr, string, geo.Continent, string, bool))) map[netip.Addr]backendEntry {
			out := map[netip.Addr]backendEntry{}
			each(func(a netip.Addr, alias string, cont geo.Continent, region string, certFound bool) {
				out[a] = backendEntry{alias, cont, region, certFound}
			})
			return out
		}
		got := collect(sys.eachBackend)
		want := collect(func(add func(netip.Addr, string, geo.Continent, string, bool)) { eachBackendFromUnion(sys, add) })

		idx, err := sys.backendIndex()
		if err != nil {
			t.Fatal(err)
		}
		if idx.Size() != len(want) || len(got) != len(want) {
			t.Fatalf("seed %d: index holds %d addresses, eachBackend %d, the oracle %d", seed, idx.Size(), len(got), len(want))
		}
		cert := 0
		for a, w := range want {
			if got[a] != w {
				t.Errorf("seed %d: %v indexed as %+v, the oracle says %+v", seed, a, got[a], w)
			}
			if idx.Owner(a) != w.alias {
				t.Errorf("seed %d: %v owned by %q in the index, the oracle says %q", seed, a, idx.Owner(a), w.alias)
			}
			if w.certFound {
				cert++
			}
		}
		if cert == 0 || cert == len(want) {
			t.Fatalf("seed %d: %d of %d addresses certificate-found; the comparison needs both kinds", seed, cert, len(want))
		}
	}
}
