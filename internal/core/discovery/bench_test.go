package discovery

import (
	"context"
	"fmt"
	"testing"
	"time"

	"iotmap/internal/core/patterns"
	"iotmap/internal/dnszone"
	"iotmap/internal/world"
)

// unrelatedStores builds each study day's zone store on its own, so no
// RRset identity links two days and Run resolves every day in full.
func unrelatedStores(w *world.World) []*dnszone.Store {
	out := make([]*dnszone.Store, len(w.Days))
	for d := range out {
		out[d] = w.ZoneStores()[d]
	}
	return out
}

// weekInputs builds the observation channels System.Discover hands to
// Run when the live scan is off: the scan catalog, passive DNS and the
// week of zone stores.
func weekInputs(w *world.World, seed int64) Inputs {
	return Inputs{
		Patterns: patterns.All(),
		Censys:   w.BuildCensys(),
		PDNS:     w.BuildDNSDB(),
		Zones:    w.ZoneStores(),
		Views:    world.VantagePointViews,
		Days:     w.Days,
		Seed:     seed,
	}
}

// BenchmarkDiscoverWeek is the discovery layer on its own: everything
// System.Discover does over a pre-built world with the live scan off
// (scan catalog, passive DNS, zone stores, Run). us/server shows how the
// layer scales with the fleet; wire-resolutions/op is the count of DNS
// round trips, a function of the world alone.
func BenchmarkDiscoverWeek(b *testing.B) {
	for _, scale := range []float64{0.1, 0.5} {
		b.Run(fmt.Sprintf("scale=%g", scale), func(b *testing.B) {
			w, err := world.Build(world.Config{Seed: 47, Scale: scale})
			if err != nil {
				b.Fatal(err)
			}
			in := weekInputs(w, 47)
			cps, err := compileAll(in)
			if err != nil {
				b.Fatal(err)
			}
			act, err := resolveWeek(context.Background(), in, cps)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				if _, err := Run(context.Background(), weekInputs(w, 47)); err != nil {
					b.Fatal(err)
				}
			}
			perOp := time.Since(start) / time.Duration(b.N)
			b.ReportMetric(float64(perOp.Microseconds())/1000, "ms/op")
			b.ReportMetric(float64(perOp.Microseconds())/float64(len(w.AllServers())), "us/server")
			b.ReportMetric(float64(act.roundTrips.Load()), "wire-resolutions/op")
		})
	}
}
