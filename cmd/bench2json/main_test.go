package main

import (
	"reflect"
	"strings"
	"testing"
)

const countedOutput = `goos: linux
goarch: amd64
pkg: iotmap
cpu: Test CPU
BenchmarkStageFederation-2             1         180000000 ns/op        37042992 B/op     416134 allocs/op
BenchmarkStageFederation-2             1         150000000 ns/op        37042000 B/op     416100 allocs/op
BenchmarkStageFederation-2             1         210000000 ns/op        37042992 B/op     416134 allocs/op
BenchmarkValidateWeek-2                1          17000000 ns/op         7.500 us/candidate
PASS
`

func TestParseKeepsEveryRepetition(t *testing.T) {
	rep, err := Parse(strings.NewReader(countedOutput))
	if err != nil {
		t.Fatal(err)
	}
	fed := rep.Benchmarks["StageFederation"]
	if want := []float64{180000000, 150000000, 210000000}; !reflect.DeepEqual(fed.Metrics["ns/op"], want) {
		t.Fatalf("ns/op = %v, want every repetition in run order %v", fed.Metrics["ns/op"], want)
	}
	if want := []float64{416134, 416100, 416134}; !reflect.DeepEqual(fed.Metrics["allocs/op"], want) {
		t.Fatalf("allocs/op = %v, want %v", fed.Metrics["allocs/op"], want)
	}
	if !reflect.DeepEqual(fed.Runs, []int{1, 1, 1}) {
		t.Fatalf("runs = %v", fed.Runs)
	}
	if got := rep.Benchmarks["ValidateWeek"].Metrics["us/candidate"]; !reflect.DeepEqual(got, []float64{7.5}) {
		t.Fatalf("custom metric = %v", got)
	}
	if rep.Env["cpu"] != "Test CPU" || rep.Env["procs"] != "2" {
		t.Fatalf("env = %v", rep.Env)
	}
}

// TestParseRecordsProcs: no suffix is one proc, and a run that mixes
// proc counts cannot be recorded as one report.
func TestParseRecordsProcs(t *testing.T) {
	rep, err := Parse(strings.NewReader("BenchmarkStageFederation  1  100 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Env["procs"] != "1" {
		t.Fatalf("procs = %q, want 1 for an unsuffixed name", rep.Env["procs"])
	}
	if _, ok := rep.Benchmarks["StageFederation"]; !ok {
		t.Fatalf("benchmarks = %v", rep.Benchmarks)
	}
	mixed := "BenchmarkStageFederation  1  100 ns/op\nBenchmarkStageFederation-2  1  100 ns/op\n"
	if _, err := Parse(strings.NewReader(mixed)); err == nil {
		t.Fatal("a run mixing 1 and 2 procs parsed as one report")
	}
}

// mkReport builds a report at two procs from per-benchmark, per-metric
// repetitions.
func mkReport(benches map[string]map[string][]float64) *Report {
	rep := &Report{Env: map[string]string{"procs": "2"}, Benchmarks: map[string]Result{}}
	for name, metrics := range benches {
		rep.Benchmarks[name] = Result{Metrics: metrics}
	}
	return rep
}

// ns builds a report with one ns/op repetition per benchmark.
func ns(values map[string]float64) *Report {
	benches := map[string]map[string][]float64{}
	for name, v := range values {
		benches[name] = map[string][]float64{"ns/op": {v}}
	}
	return mkReport(benches)
}

func TestCompareReportsGate(t *testing.T) {
	base := ns(map[string]float64{"StageFederation": 100, "StageWindowWeek": 200, "Extra": 1})
	cand := ns(map[string]float64{"StageFederation": 124, "StageWindowWeek": 260, "Extra": 1})

	regs, err := CompareReports(base, cand, nil, 25)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, r := range regs {
		got[r.Name] = r.Failed
	}
	if len(regs) != 3 || got["StageFederation"] || !got["StageWindowWeek"] || got["Extra"] {
		t.Fatalf("+24%% must pass and +30%% fail a 25%% limit: %+v", regs)
	}
	// Every BASELINE benchmark is gated, so a candidate run that lost
	// one (renamed, deleted, -bench regexp typo) errors instead of
	// passing on the intersection.
	if _, err := CompareReports(base, ns(map[string]float64{"StageWindowWeek": 1, "Extra": 1}), nil, 25); err == nil {
		t.Fatal("benchmark missing from candidate passed the gate")
	}
	// Candidate-only benchmarks are fine: the baseline defines the
	// contract.
	withNew := ns(map[string]float64{"StageFederation": 100, "StageWindowWeek": 200, "Extra": 1, "Brand": 5})
	if _, err := CompareReports(base, withNew, nil, 25); err != nil {
		t.Fatalf("candidate-only benchmark broke the compare: %v", err)
	}
}

// TestCompareReportsMetricGate: the multi-metric gate flags an
// allocs/op regression even when ns/op improved, errors on a missing
// gated metric, and treats zero-baseline→non-zero as a failure rather
// than a divide-by-zero pass.
func TestCompareReportsMetricGate(t *testing.T) {
	base := mkReport(map[string]map[string][]float64{
		"StageWindowWeek": {"ns/op": {100}, "allocs/op": {1000}},
	})
	cand := mkReport(map[string]map[string][]float64{
		"StageWindowWeek": {"ns/op": {80}, "allocs/op": {1500}},
	})
	regs, err := CompareReports(base, cand, []string{"ns/op", "allocs/op"}, 25)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 2 {
		t.Fatalf("regs = %d, want one per metric", len(regs))
	}
	if regs[0].Metric != "ns/op" || regs[0].Failed {
		t.Fatalf("improved ns/op flagged: %+v", regs[0])
	}
	if regs[1].Metric != "allocs/op" || !regs[1].Failed {
		t.Fatalf("+50%% allocs/op passed: %+v", regs[1])
	}

	zero := mkReport(map[string]map[string][]float64{"NoAllocs": {"allocs/op": {0, 0, 0}}})
	three := mkReport(map[string]map[string][]float64{"NoAllocs": {"allocs/op": {3, 3, 3}}})
	regs, err = CompareReports(zero, three, []string{"allocs/op"}, 25)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 1 || !regs[0].Failed {
		t.Fatalf("0→3 allocs/op passed the gate: %+v", regs)
	}

	if _, err := CompareReports(base, ns(map[string]float64{"StageWindowWeek": 80}), []string{"allocs/op"}, 25); err == nil {
		t.Fatal("missing candidate metric passed the gate")
	}
}

// TestCompareReportsMedian: each side is read at its median, so one
// slow or fast repetition moves neither the baseline nor the verdict.
func TestCompareReportsMedian(t *testing.T) {
	base := mkReport(map[string]map[string][]float64{"StageFederation": {"ns/op": {100, 40, 100, 100, 100}}})
	slowOnce := mkReport(map[string]map[string][]float64{"StageFederation": {"ns/op": {100, 100, 400, 100, 100}}})
	regs, err := CompareReports(base, slowOnce, nil, 10)
	if err != nil {
		t.Fatal(err)
	}
	if r := regs[0]; r.Base != 100 || r.Cand != 100 || r.Failed {
		t.Fatalf("medians 100 vs 100 with one outlier per side: %+v", r)
	}
	// The fastest repetition would have read the baseline as 40 and
	// failed this candidate; the median holds it to 100.
	slower := mkReport(map[string]map[string][]float64{"StageFederation": {"ns/op": {130, 131, 129}}})
	if regs, _ := CompareReports(base, slower, nil, 10); !regs[0].Failed || regs[0].Cand != 130 {
		t.Fatalf("median 130 passed 10%% over 100: %+v", regs[0])
	}
}

// TestCompareReportsSpreadMargin: the allowance is the max-regress
// percentage plus the baseline's own quartile spread.
func TestCompareReportsSpreadMargin(t *testing.T) {
	// Median 110, quartiles 100 and 120: 10% over the median plus the
	// 20 of spread allows 141.
	base := mkReport(map[string]map[string][]float64{"StageWindowWeek": {"B/op": {120, 100, 110, 100, 120}}})
	at := func(v float64) Regression {
		t.Helper()
		regs, err := CompareReports(base, mkReport(map[string]map[string][]float64{"StageWindowWeek": {"B/op": {v}}}), []string{"B/op"}, 10)
		if err != nil {
			t.Fatal(err)
		}
		return regs[0]
	}
	if r := at(141); r.Failed || r.Spread != 20 || r.Allowed != 141 {
		t.Fatalf("141 is within 10%% plus the spread: %+v", r)
	}
	if r := at(142); !r.Failed {
		t.Fatalf("142 passed an allowance of 141: %+v", r)
	}
}

// TestCompareReportsRefusesMixedProcs: allocations depend on
// GOMAXPROCS, so a 2-proc baseline cannot judge a 4-proc candidate.
func TestCompareReportsRefusesMixedProcs(t *testing.T) {
	base := ns(map[string]float64{"StageFederation": 100})
	cand := ns(map[string]float64{"StageFederation": 100})
	cand.Env["procs"] = "4"
	_, err := CompareReports(base, cand, []string{"ns/op"}, 25)
	if err == nil {
		t.Fatal("a 2-proc baseline judged a 4-proc candidate")
	}
	if msg := err.Error(); !strings.Contains(msg, `"2"`) || !strings.Contains(msg, `"4"`) {
		t.Fatalf("error does not name both proc counts: %v", err)
	}
}
