// Command zgrablite demonstrates the application-layer scanner against
// the synthetic Internet: it deploys one provider's IPv6 gateways onto
// the virtual fabric, runs the rate-limited TLS/MQTT/HTTP/AMQP probe
// campaign over the hitlist, and prints per-endpoint results — the
// "custom scan (IPv6)" box of the methodology's Figure 2.
//
// Usage:
//
//	zgrablite [-provider tencent] [-rate 200] [-scale F] [-seed N]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"slices"

	"iotmap/internal/certmodel"
	"iotmap/internal/vnet"
	"iotmap/internal/world"
	"iotmap/internal/zgrab"
)

func main() {
	seed := flag.Int64("seed", 1, "world seed")
	scale := flag.Float64("scale", 0.1, "deployment scale")
	providerID := flag.String("provider", "", "restrict to one provider (default: all IPv6 backends)")
	rate := flag.Float64("rate", 200, "probe rate limit per second (0 = unlimited)")
	coverage := flag.Float64("coverage", 1.0, "hitlist coverage fraction")
	flag.Parse()

	w, err := world.Build(world.Config{Seed: *seed, Scale: *scale})
	if err != nil {
		log.Fatal(err)
	}
	fabric := vnet.New()
	defer fabric.Close()
	ca, err := certmodel.NewCA("zgrab-lite CA")
	if err != nil {
		log.Fatal(err)
	}

	var servers []*world.Server
	for _, s := range w.V6Servers() {
		if *providerID != "" && s.Provider != *providerID {
			continue
		}
		servers = append(servers, s)
	}
	if len(servers) == 0 {
		log.Fatalf("no IPv6 servers for %q at this scale", *providerID)
	}
	if err := w.DeployServers(fabric, ca, servers); err != nil {
		log.Fatal(err)
	}

	hl := w.BuildHitlist(*coverage)
	targets := slices.DeleteFunc(zgrab.IoTTargets(hl.WithIoTPorts()), func(t zgrab.Target) bool {
		srv, ok := w.ServerAt(t.Addr)
		return !ok || (*providerID != "" && srv.Provider != *providerID)
	})
	fmt.Printf("hitlist entries: %d, probe targets: %d, rate limit: %.0f/s\n",
		hl.Len(), len(targets), *rate)

	sc := &zgrab.Scanner{Dialer: fabric, Rate: *rate, Concurrency: 8, Seed: *seed}
	results := sc.Scan(context.Background(), targets)

	withCert := 0
	for _, r := range results {
		status := "FAIL"
		detail := r.Err
		if r.Connected {
			status = "open"
		}
		if r.Banner != "" {
			status = "ok"
			detail = r.Banner
		}
		certInfo := ""
		if r.Cert != nil {
			withCert++
			certInfo = " cert=" + r.Cert.SubjectCN
		}
		fmt.Printf("%-28s %-5d %-6s %-5s %s%s\n",
			r.Target.Addr, r.Target.Port, r.Target.Protocol, status, detail, certInfo)
	}
	fmt.Printf("\n%d/%d probes harvested certificates\n", withCert, len(results))
}
