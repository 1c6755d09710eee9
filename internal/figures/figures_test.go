package figures

import (
	"context"
	"strings"
	"testing"

	"iotmap"
)

var cachedSys *iotmap.System

// fullRun executes the complete pipeline once per binary, with the
// outage scenario so every figure has data.
func fullRun(t *testing.T) *iotmap.System {
	t.Helper()
	if cachedSys != nil {
		return cachedSys
	}
	sys, err := iotmap.New(iotmap.Config{
		Seed:   61,
		Scale:  0.05,
		Lines:  5000,
		Days:   iotmap.OutageStudyDays(),
		Outage: iotmap.AWSOutageScenario(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	if err := sys.RunAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	cachedSys = sys
	return sys
}

func TestAllRenderersProduceOutput(t *testing.T) {
	sys := fullRun(t)
	renderers := map[string]func() string{
		"Table1":     func() string { return Table1(sys) },
		"Table2":     Table2,
		"Figure3":    func() string { return Figure3(sys) },
		"Figure4":    func() string { return Figure4(sys) },
		"Figure5":    func() string { return Figure5(sys) },
		"Figure6":    func() string { return Figure6(sys) },
		"Figure7":    func() string { return Figure7(sys) },
		"Figure8":    func() string { return Figure8(sys) },
		"Figure9":    func() string { return Figure9(sys) },
		"Figure10":   func() string { return Figure10(sys) },
		"Figure11":   func() string { return Figure11(sys) },
		"Figure12":   func() string { return Figure12(sys) },
		"Figure13":   func() string { return Figure13(sys) },
		"Figure14":   func() string { return Figure14(sys) },
		"Figure15":   func() string { return Figure15(sys) },
		"Figure16":   func() string { return Figure16(sys) },
		"Section62":  func() string { return Section62(sys) },
		"Validation": func() string { return ValidationReport(sys) },
		"VPGain":     func() string { return VantagePointGain(sys) },
	}
	for name, render := range renderers {
		out := render()
		if len(out) < 40 {
			t.Errorf("%s produced almost nothing:\n%s", name, out)
		}
		if strings.Count(out, "\n") < 2 {
			t.Errorf("%s has too few lines:\n%s", name, out)
		}
	}
}

func TestTable1ListsAllProviders(t *testing.T) {
	sys := fullRun(t)
	out := Table1(sys)
	for _, id := range sys.ProviderIDs() {
		if !strings.Contains(out, id) {
			t.Errorf("Table 1 missing provider %s", id)
		}
	}
	for _, strategy := range []string{" DI ", " PR ", "DI+PR"} {
		if !strings.Contains(out, strategy) {
			t.Errorf("Table 1 missing strategy %q", strategy)
		}
	}
}

func TestFigure15ReportsOutage(t *testing.T) {
	sys := fullRun(t)
	out := Figure15(sys)
	if !strings.Contains(out, "US-East") || !strings.Contains(out, "region drop=") {
		t.Errorf("Figure 15 incomplete:\n%s", out)
	}
	if sys.OutageReport == nil {
		t.Fatal("no outage report after Disrupt")
	}
	if sys.OutageReport.RegionDropPct <= 14.5 {
		t.Errorf("region drop = %.1f%%, want > 14.5%% (paper)", sys.OutageReport.RegionDropPct)
	}
}

func TestSection62Numbers(t *testing.T) {
	sys := fullRun(t)
	out := Section62(sys)
	if !strings.Contains(out, "10 leaks, 40 possible hijacks, 166 AS outages — 0 affecting") {
		t.Errorf("Section 6.2 event counts off:\n%s", out)
	}
	if !strings.Contains(out, "67 lists") {
		t.Errorf("Section 6.2 blocklist aggregate off:\n%s", out)
	}
}

func TestValidationCoverage(t *testing.T) {
	sys := fullRun(t)
	// Cisco and Siemens disclose full IP lists; the pipeline must cover
	// them well (the paper: "identified all the publicly listed IPs").
	for _, id := range []string{"cisco", "siemens"} {
		rep, ok := sys.Validation.IPs[id]
		if !ok {
			t.Fatalf("no IP validation for %s", id)
		}
		if rep.Coverage() < 0.8 {
			t.Errorf("%s ground-truth coverage = %.2f", id, rep.Coverage())
		}
	}
	// Microsoft's prefixes: everything discovered must fall inside.
	rep, ok := sys.Validation.Prefixes["microsoft"]
	if !ok {
		t.Fatal("no prefix validation")
	}
	if len(rep.Outside) != 0 {
		t.Errorf("%d microsoft addrs outside disclosed prefixes", len(rep.Outside))
	}
	if rep.CoveredAddrs <= uint64(rep.Found) {
		t.Error("prefixes should cover far more addresses than found")
	}
	// Traffic cross-check: misses must be a tiny volume share (<5% at
	// simulation scale; the paper reports <1%).
	if tr, ok := sys.CrossCheck["microsoft"]; ok && tr.Active > 0 {
		if tr.VolumeMissFrac > 0.05 {
			t.Errorf("volume miss fraction = %.3f", tr.VolumeMissFrac)
		}
	}
}
