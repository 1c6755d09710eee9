package censys

import (
	"fmt"
	"net/netip"
	"reflect"
	"sync"
	"testing"
	"time"

	"iotmap/internal/certmodel"
	"iotmap/internal/core/patterns"
	"iotmap/internal/proto"
	"iotmap/internal/simrand"
)

// randomSnapshot builds a snapshot of random records whose certificate
// names mix provider namespaces (drawn from the real pattern table),
// wildcards, mixed case, and unrelated noise — the adversarial input for
// the index-equivalence property.
func randomSnapshot(seed int64, n int) *Snapshot {
	rng := simrand.New(seed)
	docs := patterns.Docs()
	var records []Record
	for i := 0; i < n; i++ {
		addr := netip.AddrFrom4([4]byte{byte(10 + rng.Intn(200)), byte(rng.Intn(256)), byte(rng.Intn(256)), byte(1 + rng.Intn(250))})
		rec := Record{Addr: addr, Port: uint16(1 + rng.Intn(65000)), Protocol: proto.MQTTS}
		if rng.Bool(0.8) {
			var names []string
			for k := 0; k < 1+rng.Intn(3); k++ {
				names = append(names, randomName(rng, docs))
			}
			cert := &certmodel.Spec{
				SubjectCN: names[0],
				DNSNames:  names,
				NotBefore: day.Add(-time.Duration(rng.Intn(72)) * time.Hour),
			}
			cert.NotAfter = cert.NotBefore.Add(time.Duration(rng.Intn(96)) * time.Hour)
			rec.Cert = cert
		}
		records = append(records, rec)
	}
	return NewSnapshot(day, records)
}

func randomName(rng *simrand.Source, docs []patterns.Doc) string {
	d := docs[rng.Intn(len(docs))]
	var name string
	switch rng.Intn(6) {
	case 0: // exact provider-style name
		name = fmt.Sprintf("dev%d.iot.%s", rng.Intn(1000), d.SLD)
	case 1: // wildcard SAN under a provider SLD
		name = "*.iot." + d.SLD
	case 2: // fixed FQDN, when the provider has one
		if len(d.FixedFQDNs) > 0 {
			name = d.FixedFQDNs[rng.Intn(len(d.FixedFQDNs))]
		} else {
			name = d.SLD
		}
	case 3: // lookalike that must NOT match
		name = fmt.Sprintf("dev%d.iot.not-%s", rng.Intn(1000), d.SLD)
	case 4: // mixed case
		name = fmt.Sprintf("Dev%d.IoT.%s", rng.Intn(1000), d.SLD)
	default: // unrelated noise
		name = fmt.Sprintf("host%d.example%d.org", rng.Intn(1000), rng.Intn(50))
	}
	return name
}

// TestSearchCertsAnchoredEquivalence is the index-equivalence property:
// for random snapshots and every real provider pattern, the anchored
// (suffix-bucketed) search must return byte-identical results to the
// naive full scan.
func TestSearchCertsAnchoredEquivalence(t *testing.T) {
	pats := patterns.All()
	for seed := int64(1); seed <= 8; seed++ {
		snap := randomSnapshot(seed, 400)
		for _, p := range pats {
			naive := snap.SearchCerts(p.Regex)
			indexed := snap.SearchCertsAnchored(p.Regex, p.Anchors())
			if !reflect.DeepEqual(naive, indexed) {
				t.Fatalf("seed %d provider %s: anchored search diverged: naive %d records, indexed %d",
					seed, p.ProviderID(), len(naive), len(indexed))
			}
		}
	}
}

// TestSearchCertsAnchoredEmptyAnchors checks the fallback: no anchors
// means full scan, so results still match.
func TestSearchCertsAnchoredEmptyAnchors(t *testing.T) {
	snap := randomSnapshot(99, 200)
	for _, p := range patterns.All() {
		naive := snap.SearchCerts(p.Regex)
		fallback := snap.SearchCertsAnchored(p.Regex, nil)
		if !reflect.DeepEqual(naive, fallback) {
			t.Fatalf("provider %s: nil-anchor fallback diverged", p.ProviderID())
		}
	}
}

// TestCatalogDayViewsSearchedConcurrently is the shape discovery uses:
// several day subsets of one catalog, each searched from its own
// goroutine, all filling the catalog's shared match verdicts. Every view
// must equal a standalone snapshot of its own records, full scan.
func TestCatalogDayViewsSearchedConcurrently(t *testing.T) {
	cat := randomSnapshot(7, 400).cat
	pats := patterns.All()
	var wg sync.WaitGroup
	for d := 0; d < 4; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			date := day.Add(time.Duration(d) * 24 * time.Hour)
			active := func(i int) bool { return (i+d)%3 != 0 }
			view := cat.Snapshot(date, active)
			var subset []Record
			for i, r := range cat.Records() {
				if active(i) {
					subset = append(subset, r)
				}
			}
			want := NewSnapshot(date, subset)
			if !reflect.DeepEqual(view.Records(), want.Records()) {
				t.Errorf("day %d: view records differ from the standalone snapshot", d)
			}
			for _, p := range pats {
				naive := want.SearchCerts(p.Regex)
				if got := view.SearchCertsAnchored(p.Regex, p.Anchors()); !reflect.DeepEqual(got, naive) {
					t.Errorf("day %d provider %s: view found %d records, standalone full scan %d",
						d, p.ProviderID(), len(got), len(naive))
				}
			}
		}(d)
	}
	wg.Wait()
}
