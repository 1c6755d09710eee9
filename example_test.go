package iotmap_test

import (
	"context"
	"fmt"
	"log"

	"iotmap"
)

// Example runs the whole methodology on a laptop-sized synthetic
// Internet, 5% of the paper's deployment sizes and 4000 subscriber
// lines, and prints a summary of each stage. The run is seeded, so its
// output is reproducible. README's four-line program is this one.
func Example() {
	ctx := context.Background()
	must := func(err error) {
		if err != nil {
			log.Fatal(err)
		}
	}

	sys, err := iotmap.New(iotmap.Config{Seed: 7, Scale: 0.05, Lines: 4000})
	must(err)
	defer sys.Close()
	must(sys.Discover(ctx))       // Censys + IPv6 scan + DNSDB + active DNS
	must(sys.ValidateAndLocate()) // shared-IP filter, geolocation, Table 1
	must(sys.TrafficStudy())      // ISP NetFlow feed + Figures 5-14
	must(sys.Disrupt())           // outage + BGP + blocklist, Figures 15-16

	v4, v6 := 0, 0
	for _, id := range sys.ProviderIDs() {
		v4 += sys.Rows[id].V4Addrs
		v6 += sys.Rows[id].V6Addrs
	}
	fmt.Printf("discovery: %d IPv4 + %d IPv6 backend IPs of %d providers\n", v4, v6, len(sys.ProviderIDs()))
	fmt.Printf("  Table 1, %s: %s\n", sys.AliasOf("amazon"), sys.Rows["amazon"])

	down, up := sys.Study.DailyECDFs()
	tr := sys.Study.TrafficContinentShares()
	fmt.Printf("traffic: %d lines, P(down<=10MB)=%.2f P(up<=10MB)=%.2f\n", len(sys.Net.Lines), down.At(10e6), up.At(10e6))
	fmt.Printf("  by server continent: EU=%.0f%% US=%.0f%% Asia=%.0f%%\n", 100*tr["EU"], 100*tr["NA"], 100*tr["AS"])

	d := sys.Disruptions
	fmt.Printf("disruptions: %d leaks / %d hijacks / %d AS outages, %d touched a backend\n",
		d.Leaks, d.Hijacks, d.ASOutages, len(d.Impacts))
	fmt.Printf("  blocklists: %d backend IPs listed across %d providers\n", len(d.Hits), len(d.HitsPerProvider))
	// Output:
	// discovery: 873 IPv4 + 290 IPv6 backend IPs of 16 providers
	//   Table 1, T1: amazon     AS=4 /24=418 (/56=18) loc=18 ctry=8 DI [TCP/443, TCP/8443, TCP/8883]
	// traffic: 4000 lines, P(down<=10MB)=0.97 P(up<=10MB)=0.99
	//   by server continent: EU=72% US=25% Asia=2%
	// disruptions: 10 leaks / 40 hijacks / 166 AS outages, 0 touched a backend
	//   blocklists: 6 backend IPs listed across 6 providers
}
