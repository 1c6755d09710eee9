// Footprint: map one provider end-to-end and show how each observation
// channel contributed — the per-provider story behind Figure 3 and
// Table 1. Defaults to Amazon (the largest fleet); pass another provider
// ID as the first argument.
//
//	go run ./examples/footprint [provider-id]
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"iotmap"
	"iotmap/internal/core/discovery"
	"iotmap/internal/core/footprint"
)

func main() {
	providerID := "amazon"
	if len(os.Args) > 1 {
		providerID = os.Args[1]
	}

	sys, err := iotmap.New(iotmap.Config{Seed: 7, Scale: 0.05})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()
	ctx := context.Background()
	if err := sys.Discover(ctx); err != nil {
		log.Fatal(err)
	}
	if err := sys.ValidateAndLocate(); err != nil {
		log.Fatal(err)
	}

	res := sys.Discovery[providerID]
	if res == nil {
		log.Fatalf("unknown provider %q (see Table 1 for IDs)", providerID)
	}
	fmt.Printf("provider %s: %d addresses discovered over %d days\n",
		providerID, len(res.Addrs()), len(res.Days))

	perSource := map[string]int{}
	for id := range res.Addrs() {
		switch src := res.Sources(uint32(id)); {
		case src.Count() > 1:
			perSource["multiple sources"]++
		case src.Has(discovery.SrcCert):
			perSource["certificates only"]++
		case src.Has(discovery.SrcPDNS):
			perSource["passive DNS only"]++
		case src.Has(discovery.SrcActive):
			perSource["active DNS only"]++
		}
	}
	for _, k := range []string{"certificates only", "passive DNS only", "active DNS only", "multiple sources"} {
		fmt.Printf("  %-18s %4d\n", k, perSource[k])
	}
	fmt.Printf("  multi-VP resolution gain: +%.1f%%\n", 100*res.VPGain)

	fmt.Printf("\nvalidated: %d dedicated, %d shared (filtered out)\n",
		len(sys.Dedicated[providerID]), len(sys.Shared[providerID]))

	// Geolocation: hint-derived vs majority-vote locations.
	located := sys.Located[providerID]
	hints, votes := 0, 0
	byCountry := map[string]int{}
	for _, l := range located {
		switch l.Source {
		case footprint.LocHint:
			hints++
		case footprint.LocVote:
			votes++
		}
		if l.Location.Country != "" {
			byCountry[l.Location.Country]++
		}
	}
	fmt.Printf("geolocation: %d via domain hints, %d via majority vote\n", hints, votes)
	fmt.Printf("countries: ")
	for c, n := range byCountry {
		fmt.Printf("%s=%d ", c, n)
	}
	fmt.Println()

	row := sys.Rows[providerID]
	fmt.Printf("\nTable 1 row: %s\n", row)
}
