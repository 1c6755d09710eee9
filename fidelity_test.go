package iotmap_test

import (
	"context"
	"testing"

	"iotmap/internal/core/discovery"
	"iotmap/internal/core/patterns"
	"iotmap/internal/world"
)

// TestFigure3FusionFindsMore is the point of Figure 3 (Saidi et al.,
// §3.3): fusing the certificate scan, passive DNS, the zone stores and
// the vantage-point views finds strictly more backend addresses than
// the certificate scan alone or passive DNS alone, on every seed.
func TestFigure3FusionFindsMore(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 5, 7, 11, 13, 17} {
		w, err := world.Build(world.Config{Seed: seed, Scale: 0.05})
		if err != nil {
			t.Fatal(err)
		}
		censysSvc, pdns := w.BuildCensys(), w.BuildDNSDB()
		found := func(in discovery.Inputs) int {
			in.Patterns, in.Days, in.Seed = patterns.All(), w.Days, seed
			res, err := discovery.Run(context.Background(), in)
			if err != nil {
				t.Fatal(err)
			}
			n := 0
			for _, r := range res {
				n += len(r.Addrs())
			}
			return n
		}
		certs := found(discovery.Inputs{Censys: censysSvc})
		dns := found(discovery.Inputs{PDNS: pdns})
		fusion := found(discovery.Inputs{
			Censys: censysSvc, PDNS: pdns,
			Zones: w.ZoneStores(), Views: world.VantagePointViews,
		})
		t.Logf("seed %d: fusion %d, certs-only %d, pdns-only %d", seed, fusion, certs, dns)
		if fusion <= certs || fusion <= dns {
			t.Errorf("seed %d: fusion must find strictly more addresses than certs-only and than pdns-only", seed)
		}
	}
}
