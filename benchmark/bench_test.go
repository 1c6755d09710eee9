package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// tinySizes keeps every workload's shape (the daemon's clock still
// outlasts its window, so hours are evicted) at a size where all four
// run in a few seconds.
var tinySizes = sizes{
	scale: 0.02, replayLines: 400, replayRecords: 4000,
	daemonLines: 400, daemonRecords: 4000, daemonDays: 9, windowHours: 168,
	paperScale: 0.02, paperLines: 400, paperRecords: 4000,
	setups: 1,
}

func tinyRun(t *testing.T, workload string, trace bool) runConfig {
	dir := t.TempDir()
	return runConfig{
		workload: workload, seed: 71, seconds: 0.2, trace: trace,
		sizes: tinySizes, dir: dir, traceOut: filepath.Join(dir, "trace.json"),
	}
}

// TestSmokeAllWorkloads runs every workload both ways at tiny size with
// every check on: the checks pass, exactly the table's metrics come out,
// no end-to-end metric is zero, and a traced run leaves a span file whose
// layer spans account for the pass.
func TestSmokeAllWorkloads(t *testing.T) {
	for _, workload := range workloadNames {
		for _, trace := range []bool{false, true} {
			name := workload + "/end-to-end"
			defs := endToEnd
			if trace {
				name, defs = workload+"/traced", perLayer
			}
			t.Run(name, func(t *testing.T) {
				rc := tinyRun(t, workload, trace)
				res, problems, err := runWorkload(rc)
				if err != nil {
					t.Fatalf("run failed: %v (problems: %v)", err, problems)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d: %v", res.Correct, res.Attempted, res.Failed, problems)
				}
				if len(res.Metrics) != len(defs) {
					t.Fatalf("emitted %d metrics, the table has %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("metric %s: emitted=%v unit=%q, want unit %q", d.name, ok, m.Unit, d.unit)
					}
					if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("metric %s is %v", d.name, m.Value)
					}
					if !trace && m.Value <= 0 {
						t.Errorf("end-to-end metric %s is %v, want > 0", d.name, m.Value)
					}
				}
				if !trace {
					return
				}
				data, err := os.ReadFile(rc.traceOut)
				if err != nil {
					t.Fatal(err)
				}
				var tf traceFile
				if err := json.Unmarshal(data, &tf); err != nil {
					t.Fatal(err)
				}
				if tf.Workload != workload || len(tf.Spans) == 0 {
					t.Fatalf("span file names workload %q with %d spans", tf.Workload, len(tf.Spans))
				}
				if c := res.Metrics["trace.coverage"].Value; c < 0.9 {
					t.Errorf("trace.coverage = %.3f, want >= 0.9", c)
				}
				if workload == "daemon-live" {
					if res.Metrics["flows.window_evicted_hours"].Value <= 0 {
						t.Error("the daemon's window never evicted")
					}
					if res.Metrics["flows.window_late_records"].Value != 0 {
						t.Error("the chronological feed produced late records")
					}
				}
			})
		}
	}
}

// TestReplayModesAgree pins the cross-workload check directly: the batch
// and the window replay of one recorded week render the same bytes.
func TestReplayModesAgree(t *testing.T) {
	rc := tinyRun(t, "replay-batch", false)
	in, err := setupReplay(rc, false)
	if err != nil {
		t.Fatal(err)
	}
	defer in.close()
	var keep any
	for _, window := range []bool{false, true} {
		in.window = window
		r := newReport()
		if _, err := in.pass(nil, 0, []string{in.path}, r, &keep); err != nil {
			t.Fatal(err)
		}
		if r.failed != 0 {
			t.Errorf("window=%v: %v", window, r.problems)
		}
	}
}

// TestChronoFeedDeterministic: one seed, one feed, byte for byte; another
// seed, another feed.
func TestChronoFeedDeterministic(t *testing.T) {
	build := func(seed int64) []byte {
		rc := tinyRun(t, "daemon-live", false)
		rc.seed = seed
		d, err := setupDaemon(rc)
		if err != nil {
			t.Fatal(err)
		}
		defer d.close()
		if len(d.feed.chunks) != rc.sizes.daemonDays*24 {
			t.Fatalf("%d chunks for %d days", len(d.feed.chunks), rc.sizes.daemonDays)
		}
		seen, err := decodeOnly(d.feed.all)
		if err != nil {
			t.Fatal(err)
		}
		if seen.records != d.feed.records || d.feed.records == 0 {
			t.Fatalf("feed claims %d records, decodes to %d", d.feed.records, seen.records)
		}
		return d.feed.all
	}
	a, b, c := build(71), build(71), build(72)
	if !bytes.Equal(a, b) {
		t.Error("the same seed produced two different feeds")
	}
	if bytes.Equal(a, c) {
		t.Error("two seeds produced the same feed")
	}
}

func TestMedianPercentileSpread(t *testing.T) {
	near := func(got, want float64) bool { return math.Abs(got-want) < 1e-9 }
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median empty = %v", got)
	}
	xs := []float64{10, 20, 30, 40, 50}
	if got := percentile(xs, 0); got != 10 {
		t.Errorf("p0 = %v", got)
	}
	if got := percentile(xs, 100); got != 50 {
		t.Errorf("p100 = %v", got)
	}
	if got := percentile(xs, 90); !near(got, 46) {
		t.Errorf("p90 = %v, want 46", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
	ten := []float64{3, 1, 2, 10, 9, 8, 4, 5, 6, 7}
	if got := quartileSpread(ten); !near(got, (8.25-2.75)/5.5) {
		t.Errorf("quartileSpread = %v, want 1", got)
	}
	s := samples{2 * time.Millisecond, 4 * time.Millisecond}
	if got := s.p50(time.Millisecond); got != 3 {
		t.Errorf("samples.p50 = %v", got)
	}
}

func TestSpanSelfTimeAndCoverage(t *testing.T) {
	spans := []span{
		{Name: "pass", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 60, Parent: 0},  // overlaps a: counted once
		{Name: "c", Start: 90, End: 120, Parent: 0}, // runs past its parent: clipped
		{Name: "a1", Start: 15, End: 25, Parent: 1},
	}
	self := selfTimes(spans)
	want := []time.Duration{40, 20, 30, 30, 10} // pass: 100 - (10..60) - (90..100)
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, self[i], want[i])
		}
	}
	if got := coverage(spans, "pass"); got != 0.6 {
		t.Errorf("coverage = %v, want 0.6", got)
	}
	if got := layerTimes(spans)["a"]; len(got) != 1 || got[0] != 20 {
		t.Errorf("layerTimes[a] = %v, want its self time 20", got)
	}
	var off *tracer
	if id := off.begin("x", -1, 0); id != -1 {
		t.Errorf("nil tracer began span %d", id)
	}
	off.end(-1)
	if off.all() != nil {
		t.Error("nil tracer holds spans")
	}
}

// TestSpecMatchesMetricTables keeps BENCHMARK.json and the tables the
// binary emits from in step, names and units both.
func TestSpecMatchesMetricTables(t *testing.T) {
	spec, err := readSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("workloads %v, binary has %v", names, workloadNames)
	}
	same := func(kind string, spec []specMetric, defs []metricDef) {
		if len(spec) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the binary emits %d", kind, len(spec), len(defs))
			return
		}
		for i, d := range defs {
			if spec[i].Name != d.name || spec[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the binary %s (%s)",
					kind, i, spec[i].Name, spec[i].Unit, d.name, d.unit)
			}
			if spec[i].Better != "lower" && spec[i].Better != "higher" {
				t.Errorf("%s %s: better = %q", kind, d.name, spec[i].Better)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	// The bounds: the most a bound may be for the timings (see "Bounds"
	// in README.md for why the issue's 10% could not be kept), the
	// specification's 5% for the heap.
	for _, m := range spec.EndToEnd {
		want := 0.25
		if m.Name == "live_heap_mb" {
			want = 0.05
		}
		if m.Bound != want {
			t.Errorf("%s: bound %v, README.md says %v", m.Name, m.Bound, want)
		}
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", spec.Paths)
	}
}

// TestFillUndefined: a cell the workload left open repeats its job time
// in the metric's unit; a cell it measured is left alone.
func TestFillUndefined(t *testing.T) {
	r := newReport()
	r.set("setup_s", 1)
	r.set("job_s", 0.25)
	r.set("live_heap_mb", 7)
	r.set("figures_p50_ms", 3)
	r.fillUndefined(0.25, 1000)
	res, err := r.result(endToEnd, false)
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]float64{
		"figures_p50_ms": 3, "restore_p50_ms": 250,
		"ingest_records_per_s": 4000, "live_heap_mb": 7,
	} {
		if got := res.Metrics[name].Value; got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}

// TestBoxClock: the kernels run and read a positive slowdown, a timing is
// divided by the slowdown its sensitivity gives and a rate multiplied,
// and the wall-clock value is kept beside the scaled one.
func TestBoxClock(t *testing.T) {
	var box boxClock
	box.tick()
	box.tick() // inside boxGap: no second sample
	if len(box.cpu) != 1 || len(box.mem) != 1 {
		t.Fatalf("two ticks in a row took %d/%d samples, want 1/1", len(box.cpu), len(box.mem))
	}
	if rd := box.read(); rd.cpu <= 0 || rd.mem <= 0 {
		t.Fatalf("reading %+v", rd)
	}
	rd := reading{cpu: 1.1, mem: 1.21}
	if got := rd.slowdown(sensitivity{1, 0.5}); math.Abs(got-1.21) > 1e-9 {
		t.Errorf("slowdown = %v, want 1.21", got)
	}
	if got := (reading{1, 1}).slowdown(sensitivity{1, 2}); got != 1 {
		t.Errorf("slowdown at nominal speed = %v", got)
	}
	r := newReport()
	if got := r.timing("job_s", 2.42, rd, sensitivity{1, 0.5}); math.Abs(got-2) > 1e-9 {
		t.Errorf("timing = %v, want 2", got)
	}
	r.rate("ingest_records_per_s", 100, rd, sensitivity{1, 0.5})
	if got := r.values["ingest_records_per_s"]; math.Abs(got-121) > 1e-9 {
		t.Errorf("rate = %v, want 121", got)
	}
	if m := r.measured["job_s"]; m.Wall != 2.42 || m.CPU != 1.1 || m.Mem != 1.21 {
		t.Errorf("measured = %+v", m)
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, job float64) string {
		path := filepath.Join(dir, name)
		for _, w := range workloadNames {
			for i := 0; i < 4; i++ {
				res := result{Correct: true, Attempted: 1, Metrics: map[string]metric{}}
				for _, d := range endToEnd {
					res.Metrics[d.name] = metric{Value: 100 + float64(i), Unit: d.unit}
				}
				res.Metrics["job_s"] = metric{Value: job + float64(i)/100, Unit: "s"}
				if err := appendRecord(path, runRecord{Workload: w, Seed: int64(i), Result: res}); err != nil {
					t.Fatal(err)
				}
			}
		}
		return path
	}
	// A spec of its own, so the verdicts do not move with BENCHMARK.json.
	spec := filepath.Join(dir, "spec.json")
	doc := `{"workloads": [`
	for i, w := range workloadNames {
		if i > 0 {
			doc += ","
		}
		doc += `{"name": "` + w + `", "why": ""}`
	}
	doc += `], "end_to_end": [`
	for i, d := range endToEnd {
		if i > 0 {
			doc += ","
		}
		doc += `{"name": "` + d.name + `", "unit": "` + d.unit + `", "better": "lower", "bound": 0.1}`
	}
	doc += `]}`
	if err := os.WriteFile(spec, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	base, same, slow := write("a.jsonl", 1), write("b.jsonl", 1.05), write("c.jsonl", 1.2)
	var out bytes.Buffer
	if ok, err := compareFiles(&out, spec, base, same); err != nil || !ok {
		t.Errorf("5%% slower judged outside the bound (err %v):\n%s", err, out.String())
	}
	out.Reset()
	if ok, err := compareFiles(&out, spec, base, slow); err != nil || ok {
		t.Errorf("20%% slower judged inside the bound (err %v):\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "WORSE") {
		t.Errorf("no WORSE verdict in:\n%s", out.String())
	}
}

// TestRunExitCodes drives the command line: a run prints the result as
// its last line and exits 0; a bad workload exits non-zero and prints no
// result.
func TestRunExitCodes(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
		t.Errorf("unknown workload: exit %d, stdout %q", code, stdout.String())
	}
	if code := run([]string{"--compare", "one-file"}, &stdout, &stderr); code == 0 {
		t.Error("-compare with one file exited 0")
	}
}
