package main

import (
	"fmt"
	"runtime"
	"sort"
)

// metricDef names one metric and its unit. BENCHMARK.json lists the same
// names; TestSpecMatchesMetricTables keeps the two in step.
type metricDef struct{ name, unit string }

// endToEnd is what a user of the system sees. The driver wants every
// one of them from every workload, so a workload the metric is not
// defined on repeats its own job time there (fillUndefined).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"job_s", "s"},
	{"ingest_records_per_s", "records/s"},
	{"figures_p50_ms", "ms"},
	{"restore_p50_ms", "ms"},
	{"live_heap_mb", "MB"},
}

// perLayer is the ledger of a traced run. A workload on which a layer
// does no work reports 0 for that layer's metrics: that zero is the
// "bypass" half of a prediction, not a gap.
var perLayer = []metricDef{
	{"netflow.decode_ns_per_record", "ns"},
	{"netflow.wire_bytes_per_record", "bytes"},
	{"netflow.frames", "count"},
	{"flows.partial_fold_ns_per_record", "ns"},
	{"flows.window_fold_ns_per_record", "ns"},
	{"collector.self_ns_per_record", "ns"},
	{"collector.scaling_2streams", "ratio"},
	{"flows.merge_ms", "ms"},
	{"flows.study_ms", "ms"},
	{"flows.window_study_cold_ms", "ms"},
	{"flows.window_study_warm_us", "us"},
	{"flows.snapshot_ms", "ms"},
	{"flows.snapshot_bytes", "bytes"},
	{"flows.restore_ms", "ms"},
	{"flows.window_evicted_hours", "count"},
	{"flows.window_late_records", "count"},
	{"serve.checkpoint_p50_ms", "ms"},
	{"serve.checkpoint_bytes", "bytes"},
	{"serve.checkpoint_self_ms", "ms"},
	{"serve.restore_self_ms", "ms"},
	{"serve.figures_handler_ms", "ms"},
	{"serve.window_handler_ms", "ms"},
	{"serve.stats_handler_ms", "ms"},
	{"serve.http_overhead_ms", "ms"},
	{"serve.figures_p99_ms", "ms"},
	{"serve.read_stall_p99_ms", "ms"},
	{"serve.heap_after_live_mb", "MB"},
	{"figures.render_daemon_ms", "ms"},
	{"figures.render_paper_ms", "ms"},
	{"isp.simulate_ns_per_record", "ns"},
	{"isp.encode_ns_per_record", "ns"},
	{"isp.records", "count"},
	{"world.build_ms", "ms"},
	{"discovery.run_ms", "ms"},
	{"validate.run_ms", "ms"},
	{"iotmap.traffic_study_ms", "ms"},
	{"iotmap.disrupt_ms", "ms"},
	{"loadgen.feed_lag_p99_ms", "ms"},
	{"loadgen.read_lag_p99_ms", "ms"},
	{"loadgen.offered_records", "count"},
	{"runtime.allocs_per_record", "count"},
	{"runtime.alloc_bytes_per_record", "bytes"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"trace.coverage", "ratio"},
	{"trace.overhead_pct", "%"},
	{"box.cpu_slowdown", "ratio"},
	{"box.mem_slowdown", "ratio"},
}

var workloadNames = []string{"replay-batch", "replay-window", "daemon-live", "paper-batch"}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object a run prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects what a workload measured: values by metric name, and
// the ledger of operations attempted and failed behind failed_ops.
type report struct {
	values map[string]float64
	// measured keeps, for every value the box clock scaled, what the
	// wall clock read and what the kernels read beside it; -out records
	// it, so a reader can undo the scaling.
	measured  map[string]measured
	attempted int64
	failed    int64
	problems  []string
}

// measured is one wall-clock value before the box clock scaled it, and
// the slowdown of each kernel over the stretch it was measured in.
type measured struct {
	Wall float64 `json:"wall"`
	CPU  float64 `json:"cpu_slowdown"`
	Mem  float64 `json:"mem_slowdown"`
}

func newReport() *report {
	return &report{values: map[string]float64{}, measured: map[string]measured{}}
}

func (r *report) set(name string, v float64) { r.values[name] = v }

// timing sets a metric that is a time: the wall-clock value divided by
// the box's slowdown over the same stretch (box.go). It returns the
// value set.
func (r *report) timing(name string, wall float64, rd reading, s sensitivity) float64 {
	r.measured[name] = measured{Wall: wall, CPU: rd.cpu, Mem: rd.mem}
	v := wall / rd.slowdown(s)
	r.set(name, v)
	return v
}

// rate is timing for a metric that is work per time.
func (r *report) rate(name string, wall float64, rd reading, s sensitivity) {
	r.measured[name] = measured{Wall: wall, CPU: rd.cpu, Mem: rd.mem}
	r.set(name, wall*rd.slowdown(s))
}

// fillUndefined gives the end-to-end metrics the workload has not set a
// value: its median job time in the metric's unit, records per job
// second for the throughput. The driver's contract wants every
// end-to-end metric from every workload and never zero, while the
// daemon's metrics mean nothing on a batch job; a cell filled here moves
// exactly as job_s does and so gates nothing job_s does not.
func (r *report) fillUndefined(jobSeconds float64, records int64) {
	for _, d := range endToEnd {
		if _, ok := r.values[d.name]; ok {
			continue
		}
		switch d.unit {
		case "ms":
			r.set(d.name, jobSeconds*1e3)
		case "records/s":
			r.set(d.name, float64(records)/jobSeconds)
		}
	}
}

// ops counts operations the product was asked to do and how many of
// them it did not do (records offered but not folded, requests answered
// with an error).
func (r *report) ops(attempted, failed int64, what string) {
	r.attempted += attempted
	if failed > 0 {
		r.failed += failed
		r.problem("%d of %d %s failed", failed, attempted, what)
	}
}

// check counts one output check.
func (r *report) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		r.problem(format, args...)
	}
}

func (r *report) problem(format string, args ...any) {
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// result shapes the report into the defs' metrics: every def appears
// once, a def the workload did not set is allowed only where zeroOK (the
// per-layer table), and a value no def names is a bug in the workload.
func (r *report) result(defs []metricDef, zeroOK bool) (result, error) {
	res := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: make(map[string]metric, len(defs))}
	known := map[string]bool{}
	for _, d := range defs {
		known[d.name] = true
		v, ok := r.values[d.name]
		if !ok && !zeroOK {
			return res, fmt.Errorf("metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	var stray []string
	for name := range r.values {
		if !known[name] {
			stray = append(stray, name)
		}
	}
	if len(stray) > 0 {
		sort.Strings(stray)
		return res, fmt.Errorf("measured metrics outside the table: %v", stray)
	}
	return res, nil
}

// memDelta reads allocation and GC counters over a stretch of work.
type memDelta struct{ before runtime.MemStats }

func startMem() *memDelta {
	m := &memDelta{}
	runtime.ReadMemStats(&m.before)
	return m
}

// report sets the runtime.* layer metrics for the stretch since startMem,
// during which the product made the given number of passes over that
// many records each. A run lasts a fixed time, so a faster change makes
// more passes: allocations are counted per record and collections per
// pass, or they would read worse for it.
func (m *memDelta) report(r *report, records int64, passes int) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	p := float64(max(passes, 1))
	n := p * float64(max(records, 1))
	r.set("runtime.allocs_per_record", float64(after.Mallocs-m.before.Mallocs)/n)
	r.set("runtime.alloc_bytes_per_record", float64(after.TotalAlloc-m.before.TotalAlloc)/n)
	r.set("runtime.gc_cycles", float64(after.NumGC-m.before.NumGC)/p)
	r.set("runtime.gc_pause_ms", float64(after.PauseTotalNs-m.before.PauseTotalNs)/1e6/p)
}

// liveHeapMB is the heap still allocated after a full collection, with
// whatever the caller still references counted in. HeapAlloc, not
// HeapInuse: the spans a collection leaves partly empty made HeapInuse
// wander 8% between identical runs. Two collections, so objects freed by
// finalizers in the first are gone too.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
