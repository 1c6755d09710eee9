package iotmap_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"iotmap"
	"iotmap/internal/core/flows"
	"iotmap/internal/figures"
)

// The golden files pin the single-pass pipeline to the pre-refactor
// analysis code applied to one recorded feed: they were generated by
// simulating the week once into a buffer and running the explicit
// two-pass analysis (ContactCounter, then Collector with the counter's
// scanners excluded) over that same buffer. TrafficStudy's sharded
// pipeline must reproduce them byte-for-byte.
//
// They are deliberately NOT the old TrafficStudy's literal output: its
// second Simulate pass inherited device-homing state from the first, so
// the old Collector aggregated a different week than the one scanners
// were counted on — a fidelity bug relative to the paper's
// single-recorded-feed methodology (see CHANGES.md, PR 2).
const goldenDir = "testdata/golden_pr2"

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join(goldenDir, name))
	if err != nil {
		t.Fatal(err)
	}
	if string(want) == got {
		return
	}
	wantLines, gotLines := strings.Split(string(want), "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wantLines) || i < len(gotLines); i++ {
		var w, g string
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if w != g {
			t.Errorf("%s drifted from the single-feed two-pass baseline at line %d:\n want: %q\n got:  %q", name, i+1, w, g)
			return
		}
	}
	t.Errorf("%s drifted from the single-feed two-pass baseline (len got=%d want=%d)", name, len(got), len(want))
}

// fixture is a seed-71 System the goldens render from, built once per
// test binary. A failed build panics inside the Once, so the first test
// to ask reports it and later ones fail on the missing System.
type fixture struct {
	once sync.Once
	sys  *iotmap.System
}

func (f *fixture) get(t testing.TB, cfg iotmap.Config, through func(*iotmap.System) error) *iotmap.System {
	t.Helper()
	f.once.Do(func() {
		sys, err := iotmap.New(cfg)
		if err != nil {
			panic(err)
		}
		if err := through(sys); err != nil {
			panic(err)
		}
		f.sys = sys
	})
	if f.sys == nil {
		t.Fatal("seed-71 fixture failed to build (see the first test's panic)")
	}
	return f.sys
}

var mainFixture, outageFixture, wireFixture, wireOutageFixture fixture

// runAll drives every stage; throughValidate stops after
// ValidateAndLocate so the wire goldens can drive TrafficStudy
// themselves to vary the stream count.
func runAll(sys *iotmap.System) error { return sys.RunAll(context.Background()) }

func throughValidate(sys *iotmap.System) error {
	if err := sys.Discover(context.Background()); err != nil {
		return err
	}
	return sys.ValidateAndLocate()
}

func mainSystem(t testing.TB) *iotmap.System {
	t.Helper()
	return mainFixture.get(t, iotmap.Config{Seed: 71, Scale: 0.05, Lines: 5000}, runAll)
}

func outageSystem(t testing.TB) *iotmap.System {
	t.Helper()
	return outageFixture.get(t, iotmap.Config{
		Seed: 71, Scale: 0.05, Lines: 5000,
		Days:   iotmap.OutageStudyDays(),
		Outage: iotmap.AWSOutageScenario(),
	}, runAll)
}

// wireSystem is the seed-71 fixture in wire mode, prepared through
// ValidateAndLocate.
func wireSystem(t testing.TB) *iotmap.System {
	t.Helper()
	return wireFixture.get(t, iotmap.Config{
		Seed: 71, Scale: 0.05, Lines: 5000,
		TrafficMode: iotmap.TrafficModeWire,
	}, throughValidate)
}

// wireOutageSystem is the outage-week twin of wireSystem.
func wireOutageSystem(t testing.TB) *iotmap.System {
	t.Helper()
	return wireOutageFixture.get(t, iotmap.Config{
		Seed: 71, Scale: 0.05, Lines: 5000,
		Days:        iotmap.OutageStudyDays(),
		Outage:      iotmap.AWSOutageScenario(),
		TrafficMode: iotmap.TrafficModeWire,
	}, throughValidate)
}

// TestGoldenFigures: every Section 5 artifact at seed 71 is byte-identical
// to the recorded single-feed baseline.
func TestGoldenFigures(t *testing.T) {
	sys := mainSystem(t)
	for name, render := range goldenSection5 {
		checkGolden(t, name, render(sys))
	}
}

// TestGoldenDiscoveryFigures: the outputs of discovery and validation at
// seed 71 — Table 1, Figures 3-4, the vantage-point gain and §6.2 — are
// byte-identical to their recorded baseline.
func TestGoldenDiscoveryFigures(t *testing.T) {
	sys := mainSystem(t)
	for name, render := range goldenSections3to4 {
		checkGolden(t, name, render(sys))
	}
}

// goldenSections3to4 are the artifacts discovery (§3.3), validation
// (§3.4) and the §6.2 check over the validated sets render.
var goldenSections3to4 = map[string]func(*iotmap.System) string{
	"table1.txt":    figures.Table1,
	"figure3.txt":   figures.Figure3,
	"figure4.txt":   figures.Figure4,
	"vpgain.txt":    figures.VantagePointGain,
	"section62.txt": figures.Section62,
}

// TestPaperReportIndependentOfProcs: scheduling cannot leak into the
// report. Discovery, validation and Figure 12 fan out over GOMAXPROCS;
// one small System taken through RunAll at 1, 2 and 8 procs renders
// every table and figure cmd/paper prints byte-identically.
func TestPaperReportIndependentOfProcs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var first string
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		sys, err := iotmap.New(iotmap.Config{Seed: 5, Scale: 0.02, Lines: 900, SkipLiveScan: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.RunAll(context.Background()); err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, render := range []func(*iotmap.System) string{
			figures.Table1, func(*iotmap.System) string { return figures.Table2() },
			figures.Figure3, figures.Figure4, figures.VantagePointGain, figures.ValidationReport,
			figures.Figure5, figures.Figure6, figures.Figure7, figures.Figure8, figures.Figure9,
			figures.Figure10, figures.Figure11, figures.Figure12, figures.Figure13, figures.Figure14,
			figures.Section62, figures.Figure15, figures.Figure16,
		} {
			b.WriteString(render(sys))
		}
		sys.Close()
		if procs == 1 {
			first = b.String()
			continue
		}
		if b.String() != first {
			t.Fatalf("GOMAXPROCS=%d renders a different report than GOMAXPROCS=1", procs)
		}
	}
}

// TestGoldenOutageFigures: the outage deep-dive series (Figures 15/16)
// survive the pipeline refactor too.
func TestGoldenOutageFigures(t *testing.T) {
	sys := outageSystem(t)
	checkGolden(t, "figure15.txt", figures.Figure15(sys))
	checkGolden(t, "figure16.txt", figures.Figure16(sys))
}

// TestGoldenScannerCurve: Figure 5's threshold sweep at seed 71, as
// literal values — the contact counter now fills from per-line merges,
// and the curve must not move.
func TestGoldenScannerCurve(t *testing.T) {
	sys := mainSystem(t)
	got := ""
	for _, pt := range sys.Contacts.Curve([]int{10, 20, 50, 100, 200, 500, 1000}) {
		got += fmt.Sprintf("%d %d %.6f\n", pt.Threshold, pt.Scanners, pt.CoveragePct)
	}
	checkGolden(t, "curve71.txt", got)
}

// TestGoldenWireFigures is the wire path's headline property: running
// TrafficStudy in wire mode — every line shard exported as a dictionary
// stream, decoded, validated, and rescaled by internal/collector —
// reproduces every Section 5 figure, the validation report, and the
// scanner curve byte-identical to the golden_pr2 baseline, whether the
// feed crosses the wire as 1, 4, or 8 concurrent streams. The figures
// are computed from packets, not memory.
func TestGoldenWireFigures(t *testing.T) {
	sys := wireSystem(t)
	for _, streams := range []int{1, 4, 8} {
		t.Run(fmt.Sprintf("dict/streams-%d", streams), func(t *testing.T) {
			sys.Cfg.WireStreams = streams
			if err := sys.TrafficStudy(); err != nil {
				t.Fatal(err)
			}
			if err := sys.Disrupt(); err != nil {
				t.Fatal(err)
			}
			if sys.WireExport == nil || sys.WireIngest == nil {
				t.Fatal("wire mode left no transfer stats")
			}
			if sys.WireExport.Streams != streams {
				t.Fatalf("exported %d streams, want %d", sys.WireExport.Streams, streams)
			}
			if got, want := sys.WireIngest.V4Records+sys.WireIngest.V6Records,
				sys.WireExport.V4Records+sys.WireExport.V6Records; got != want {
				t.Fatalf("collector decoded %d records, exporter framed %d", got, want)
			}
			if sys.WireExport.BatchFrames == 0 || sys.WireIngest.BatchRecords == 0 {
				t.Fatalf("no batches crossed the wire: export=%+v ingest=%+v", sys.WireExport, sys.WireIngest)
			}
			for name, render := range goldenSection5 {
				checkGolden(t, name, render(sys))
			}
			got := ""
			for _, pt := range sys.Contacts.Curve([]int{10, 20, 50, 100, 200, 500, 1000}) {
				got += fmt.Sprintf("%d %d %.6f\n", pt.Threshold, pt.Scanners, pt.CoveragePct)
			}
			checkGolden(t, "curve71.txt", got)
		})
	}
}

// goldenSection5 are the artifacts every Section 5 pipeline variant
// must reproduce byte-identically.
var goldenSection5 = map[string]func(*iotmap.System) string{
	"figure5.txt":    figures.Figure5,
	"figure6.txt":    figures.Figure6,
	"figure7.txt":    figures.Figure7,
	"figure8.txt":    figures.Figure8,
	"figure9.txt":    figures.Figure9,
	"figure10.txt":   figures.Figure10,
	"figure11.txt":   figures.Figure11,
	"figure12.txt":   figures.Figure12,
	"figure13.txt":   figures.Figure13,
	"figure14.txt":   figures.Figure14,
	"validation.txt": figures.ValidationReport,
}

// TestGoldenFederationSingleVantage: federation with one default
// vantage is a transparent seam — FederationStudy's only vantage AND
// its union both reproduce every golden_pr2 artifact byte for byte,
// exactly as TrafficStudy does. Same discipline PR 3 used for the wire:
// the new layer must change nothing until a second vantage exists.
func TestGoldenFederationSingleVantage(t *testing.T) {
	sys := mainSystem(t)
	if err := sys.FederationStudy(); err != nil {
		t.Fatal(err)
	}
	fed := sys.Federation
	if len(fed.Vantages) != 1 {
		t.Fatalf("default federation ran %d vantages", len(fed.Vantages))
	}
	if sp := fed.Vantages[0].Spec; sp.Seed != sys.Cfg.Seed || sp.Lines != sys.Cfg.Lines {
		t.Fatalf("default vantage spec %+v does not inherit the run config", sp)
	}
	for variant, view := range map[string]struct {
		study    *iotmap.Study
		contacts *flows.ContactCounter
	}{
		"vantage": {fed.Vantages[0].Study, fed.Vantages[0].Contacts},
		"union":   {fed.Union, fed.UnionContacts},
	} {
		t.Run(variant, func(t *testing.T) {
			fsys := *sys
			fsys.Study = view.study
			fsys.Contacts = view.contacts
			for name, render := range goldenSection5 {
				checkGolden(t, name, render(&fsys))
			}
			got := ""
			for _, pt := range fsys.Contacts.Curve([]int{10, 20, 50, 100, 200, 500, 1000}) {
				got += fmt.Sprintf("%d %d %.6f\n", pt.Threshold, pt.Scanners, pt.CoveragePct)
			}
			checkGolden(t, "curve71.txt", got)
		})
	}
	// The coverage report of a single-vantage run is degenerate but
	// must still be self-consistent: union == the one vantage, nothing
	// exclusive beyond it.
	cov := fed.Coverage
	if len(cov.Vantages) != 1 || cov.Union != cov.Vantages[0].Backends || cov.Everywhere != cov.Union {
		t.Fatalf("degenerate coverage inconsistent: %+v", cov)
	}
}

// TestGoldenFederationWire: the single-vantage federation seam holds
// over the wire data path too — per-vantage studies come from packets
// and still match golden_pr2.
func TestGoldenFederationWire(t *testing.T) {
	sys := wireSystem(t)
	sys.Cfg.WireStreams = 4
	if err := sys.FederationStudy(); err != nil {
		t.Fatal(err)
	}
	fed := sys.Federation
	vr := fed.Vantages[0]
	if vr.WireExport == nil || vr.WireIngest == nil {
		t.Fatal("wire-mode federation left no transfer stats")
	}
	if len(vr.WireStreams) != 4 {
		t.Fatalf("per-stream breakdown has %d entries, want 4", len(vr.WireStreams))
	}
	var streamRecords uint64
	for _, ss := range vr.WireStreams {
		if ss.Vantage != vr.Spec.Name {
			t.Fatalf("stream %d attributed to %q, want %q", ss.Stream, ss.Vantage, vr.Spec.Name)
		}
		streamRecords += ss.V4Records + ss.V6Records
	}
	if want := vr.WireExport.V4Records + vr.WireExport.V6Records; streamRecords != want {
		t.Fatalf("per-stream records sum to %d, exporter framed %d", streamRecords, want)
	}
	fsys := *sys
	fsys.Study = vr.Study
	fsys.Contacts = vr.Contacts
	for name, render := range goldenSection5 {
		checkGolden(t, name, render(&fsys))
	}
}

// TestGoldenWireOutageFigures: the outage deep-dive (Figures 15/16)
// survives the wire too, at every stream count.
func TestGoldenWireOutageFigures(t *testing.T) {
	sys := wireOutageSystem(t)
	for _, streams := range []int{1, 4, 8} {
		t.Run(fmt.Sprintf("streams-%d", streams), func(t *testing.T) {
			sys.Cfg.WireStreams = streams
			if err := sys.TrafficStudy(); err != nil {
				t.Fatal(err)
			}
			if err := sys.Disrupt(); err != nil {
				t.Fatal(err)
			}
			checkGolden(t, "figure15.txt", figures.Figure15(sys))
			checkGolden(t, "figure16.txt", figures.Figure16(sys))
		})
	}
}
