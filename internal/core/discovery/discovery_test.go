package discovery

import (
	"context"
	"testing"

	"iotmap/internal/certmodel"
	"iotmap/internal/core/patterns"
	"iotmap/internal/vnet"
	"iotmap/internal/world"
)

var (
	cachedWorld   *world.World
	cachedResults map[string]*Result
)

// runPipeline builds a world and runs full discovery once per binary.
func runPipeline(t *testing.T) (*world.World, map[string]*Result) {
	t.Helper()
	if cachedResults != nil {
		return cachedWorld, cachedResults
	}
	w, err := world.Build(world.Config{Seed: 21, Scale: 0.06})
	if err != nil {
		t.Fatal(err)
	}
	fabric := vnet.New()
	t.Cleanup(fabric.Close)
	ca, err := certmodel.NewCA("Discovery CA")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.DeployServers(fabric, ca, w.V6Servers()); err != nil {
		t.Fatal(err)
	}
	in := Inputs{
		Patterns: patterns.All(),
		Censys:   w.BuildCensys(),
		PDNS:     w.BuildDNSDB(),
		Hitlist:  w.BuildHitlist(0.8),
		Fabric:   fabric,
		Zones:    unrelatedStores(w),
		Views:    world.VantagePointViews,
		Days:     w.Days,
		Seed:     21,
	}
	res, err := Run(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	cachedWorld, cachedResults = w, res
	return w, res
}

func TestSourceBitmask(t *testing.T) {
	s := SrcCert | SrcPDNS
	if !s.Has(SrcCert) || s.Has(SrcActive) || s.Count() != 2 {
		t.Fatalf("bitmask broken: %v", s)
	}
	if s.String() != "multiple" || SrcActive.String() != "active-dns" || Source(0).String() != "none" {
		t.Fatal("Source.String mismatch")
	}
}

func TestDiscoveryFindsEveryProvider(t *testing.T) {
	w, res := runPipeline(t)
	for _, id := range w.Order {
		r := res[id]
		if r == nil || len(r.Days) != len(w.Days) {
			t.Fatalf("provider %s: missing result", id)
		}
		if len(r.Addrs()) == 0 {
			t.Errorf("provider %s: nothing discovered", id)
		}
	}
}

func TestNoFalsePositives(t *testing.T) {
	w, res := runPipeline(t)
	for id, r := range res {
		for _, addr := range r.Addrs() {
			srv, ok := w.ServerAt(addr)
			if !ok {
				t.Errorf("%s discovered non-existent address %v", id, addr)
				continue
			}
			if srv.Provider != id {
				t.Errorf("%s discovered %v which belongs to %s", id, addr, srv.Provider)
			}
		}
	}
}

// Figure 3's headline semantics: Microsoft ≈100% via certificates alone;
// Google <5% via certificates, carried by DNS instead.
func TestFigure3SourceMix(t *testing.T) {
	w, res := runPipeline(t)

	ms := res["microsoft"].Days[0]
	msActive := 0
	for _, s := range w.Providers["microsoft"].ActiveServers(0) {
		if !s.IsV6() {
			msActive++
		}
	}
	if got := countSource(ms, SrcCert); got != msActive {
		t.Errorf("microsoft cert coverage = %d, active = %d", got, msActive)
	}

	g := res["google"].Days[0]
	gAll := len(g.IDs)
	gCert := countSource(g, SrcCert)
	if gAll == 0 {
		t.Fatal("google: nothing discovered")
	}
	// "<2% via Censys" at paper scale; at test scale the leak class is
	// floored at one or two servers of a ~16-server fleet.
	if frac := float64(gCert) / float64(gAll); frac > 0.1 && gCert > 2 {
		t.Errorf("google cert fraction = %.2f (%d addrs), want tiny", frac, gCert)
	}
	if pdns := countSource(g, SrcPDNS); pdns == 0 {
		t.Error("google: passive DNS found nothing")
	}
}

// Active DNS must contribute addresses no other source saw (Section
// 3.5's ~20% for several providers).
func TestActiveDNSContributes(t *testing.T) {
	_, res := runPipeline(t)
	activeOnlyOf := func(id string) int {
		n := 0
		for i := range res[id].Addrs() {
			if res[id].Sources(uint32(i)) == SrcActive {
				n++
			}
		}
		return n
	}
	// Amazon's fleet is large even at test scale: its mTLS-only MQTT
	// servers that passive DNS missed are discoverable solely by the
	// daily resolutions, so the sole-source count must be substantial.
	amazonUnion := len(res["amazon"].Addrs())
	if ao := activeOnlyOf("amazon"); ao == 0 || float64(ao)/float64(amazonUnion) < 0.02 {
		t.Errorf("amazon active-DNS-only = %d of %d, want a visible share", ao, amazonUnion)
	}
	// And at least one smaller provider shows the same effect.
	contributes := 0
	for _, id := range []string{"bosch", "ibm", "siemens", "alibaba", "sierra"} {
		if activeOnlyOf(id) > 0 {
			contributes++
		}
	}
	if contributes == 0 {
		t.Error("no small provider has active-DNS-only discoveries")
	}
}

// The custom IPv6 scan must surface v6 backends for default-cert
// providers, and the VP gain must be positive (the paper's ≈17%).
func TestIPv6ScanAndVPGain(t *testing.T) {
	w, res := runPipeline(t)
	foundV6 := false
	for _, id := range []string{"tencent", "siemens", "sierra", "amazon"} {
		for _, addr := range res[id].Addrs() {
			if s, ok := w.ServerAt(addr); ok && s.IsV6() {
				foundV6 = true
			}
		}
	}
	if !foundV6 {
		t.Error("no IPv6 backend discovered by any channel")
	}
	gainers := 0
	for _, id := range []string{"google", "amazon"} {
		if res[id].VPGain > 0.01 {
			gainers++
		}
	}
	if gainers == 0 {
		t.Error("no provider shows a multi-vantage-point gain")
	}
}

// Alibaba's v6 estate is invisible to the hitlist; only active DNS may
// find it (Figure 3's active-DNS-only v6 bar).
func TestAlibabaV6ActiveOnly(t *testing.T) {
	w, res := runPipeline(t)
	for i, addr := range res["alibaba"].Addrs() {
		s, ok := w.ServerAt(addr)
		if !ok || !s.IsV6() {
			continue
		}
		if res["alibaba"].Sources(uint32(i)).Has(SrcCert) {
			t.Errorf("alibaba v6 %v discovered via certificates", addr)
		}
	}
}

// Discovery must track churn: a server that retired mid-week may appear
// in early day-results but not in the last day's active-DNS answers.
func TestDailySetsReflectChurn(t *testing.T) {
	w, res := runPipeline(t)
	r := res["sap"]
	first := map[string]bool{}
	for _, id := range r.Days[0].IDs {
		first[r.Addrs()[id].String()] = true
	}
	last := map[string]bool{}
	for _, id := range r.Days[len(r.Days)-1].IDs {
		last[r.Addrs()[id].String()] = true
	}
	if len(first) == 0 || len(last) == 0 {
		t.Skip("sap set too small at this scale")
	}
	same := 0
	for a := range first {
		if last[a] {
			same++
		}
	}
	if same == len(first) && len(first) == len(last) {
		// SAP churns 5%/day; identical endpoints sets across the whole
		// week would mean churn is invisible to the pipeline.
		churned := 0
		for _, s := range w.Providers["sap"].Servers {
			if s.FirstDay > 0 || s.LastDay < len(w.Days)-1 {
				churned++
			}
		}
		if churned > 0 {
			t.Error("sap churned but the discovered daily sets never changed")
		}
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(context.Background(), Inputs{}); err == nil {
		t.Fatal("empty inputs accepted")
	}
}

// countSource counts the addresses carrying source s.
func countSource(d DayResult, s Source) int {
	n := 0
	for _, src := range d.Sources {
		if src.Has(s) {
			n++
		}
	}
	return n
}
