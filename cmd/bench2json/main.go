// Command bench2json records `go test -bench` output as JSON and
// compares two recordings: CI's benchmark regression gate.
//
// Usage:
//
//	go test -run '^$' -bench . -benchtime 1x -count 5 -cpu 2 -benchmem . \
//	    | go run ./cmd/bench2json -out BENCH_CI.json
//	go run ./cmd/bench2json -compare BENCH_GATE.json -candidate BENCH_CI.json \
//	    -gate-metrics allocs/op,B/op -max-regress 10
//
// A recording maps each benchmark name to every -count repetition of
// every metric it printed (ns/op, B/op, allocs/op and custom units), in
// run order, and keeps the environment header go test prints plus the
// GOMAXPROCS the run used (Env["procs"], read from the -N suffix go
// test appends to each name; no suffix means 1).
//
// Compare mode gates every baseline benchmark on each -gate-metrics
// metric. It compares medians: a metric fails when the candidate's
// median exceeds the baseline's by more than -max-regress percent plus
// the baseline's own quartile spread. A baseline benchmark or metric
// missing from the candidate fails; candidate-only benchmarks are
// ignored. Two recordings made at different proc counts are refused,
// because allocations depend on GOMAXPROCS.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Result is one benchmark's repetitions.
type Result struct {
	// Runs holds each repetition's iteration count.
	Runs []int `json:"runs"`
	// Metrics maps a unit to its value in each repetition.
	Metrics map[string][]float64 `json:"metrics"`
}

// Report is the emitted document.
type Report struct {
	// Env carries the goos/goarch/pkg/cpu header lines and procs.
	Env map[string]string `json:"env"`
	// Benchmarks maps benchmark name (without the Benchmark prefix and
	// -N proc suffix) to its repetitions.
	Benchmarks map[string]Result `json:"benchmarks"`
}

func main() {
	out := flag.String("out", "", "output file for the recording of stdin (default stdout)")
	compare := flag.String("compare", "", "baseline JSON: compare -candidate against it instead of recording")
	candidate := flag.String("candidate", "", "candidate JSON for -compare")
	gateMetrics := flag.String("gate-metrics", "ns/op", "comma-separated metrics the -compare gate enforces per benchmark")
	maxRegress := flag.Float64("max-regress", 25, "percentage over the baseline median, plus its quartile spread, that fails the -compare gate")
	flag.Parse()

	var err error
	if *compare != "" {
		err = runCompare(*compare, *candidate, *gateMetrics, *maxRegress)
	} else {
		err = record(os.Stdin, *out)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench2json: %v\n", err)
		os.Exit(1)
	}
}

// record parses go test output from r and writes the JSON recording to
// path, or to stdout when path is empty.
func record(r io.Reader, path string) error {
	report, err := Parse(r)
	if err != nil {
		return err
	}
	enc, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	if path == "" {
		_, err = os.Stdout.Write(enc)
		return err
	}
	return os.WriteFile(path, enc, 0o644)
}

// Parse reads `go test -bench` output into a Report. Every benchmark
// line must carry the same proc suffix.
func Parse(r io.Reader) (*Report, error) {
	rep := &Report{Env: map[string]string{}, Benchmarks: map[string]Result{}}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if k, v, ok := strings.Cut(line, ": "); ok && (k == "goos" || k == "goarch" || k == "pkg" || k == "cpu") {
			rep.Env[k] = v
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 3 {
			continue
		}
		runs, err := strconv.Atoi(fields[1])
		if err != nil {
			continue
		}
		name, procs := splitProcs(strings.TrimPrefix(fields[0], "Benchmark"))
		if prev, ok := rep.Env["procs"]; ok && prev != procs {
			return nil, fmt.Errorf("benchmark lines ran at %s and at %s procs: record one -cpu value per report", prev, procs)
		}
		rep.Env["procs"] = procs
		res, ok := rep.Benchmarks[name]
		if !ok {
			res = Result{Metrics: map[string][]float64{}}
		}
		res.Runs = append(res.Runs, runs)
		// Remaining fields come in value/unit pairs: 12345 ns/op 67 B/op ...
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				break
			}
			res.Metrics[fields[i+1]] = append(res.Metrics[fields[i+1]], v)
		}
		rep.Benchmarks[name] = res
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(rep.Benchmarks) == 0 {
		return nil, fmt.Errorf("no benchmark lines found in input")
	}
	return rep, nil
}

// splitProcs splits the GOMAXPROCS suffix go test appends ("-8") off a
// benchmark name; go test appends none at one proc.
func splitProcs(name string) (string, string) {
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i], name[i+1:]
		}
	}
	return name, "1"
}

// loadReport reads a recorded JSON document.
func loadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// Regression is one gate verdict: one benchmark, one metric, the median
// of each side's repetitions.
type Regression struct {
	Name       string
	Metric     string
	Base, Cand float64
	// Spread is the baseline's quartile spread (upper minus lower
	// quartile), and Allowed the largest candidate median that passes.
	Spread, Allowed float64
	DeltaPct        float64
	Failed          bool
}

// CompareReports gates every baseline benchmark's metrics, ns/op when
// metrics is empty. A candidate median fails when it exceeds the
// baseline median by more than maxRegressPct percent plus the
// baseline's quartile spread. Reports recorded at different proc
// counts, and a baseline benchmark or metric missing from either side,
// are errors: a benchmark that vanished from the candidate run
// (renamed, deleted, filtered out by a -bench regexp typo) must not
// pass as if it had been measured.
func CompareReports(base, cand *Report, metrics []string, maxRegressPct float64) ([]Regression, error) {
	if bp, cp := base.Env["procs"], cand.Env["procs"]; bp != cp {
		return nil, fmt.Errorf("baseline ran at %q procs, candidate at %q: allocations depend on GOMAXPROCS, so record both at the same -cpu", bp, cp)
	}
	if len(metrics) == 0 {
		metrics = []string{"ns/op"}
	}
	names := make([]string, 0, len(base.Benchmarks))
	for name := range base.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]Regression, 0, len(names)*len(metrics))
	for _, name := range names {
		c, ok := cand.Benchmarks[name]
		if !ok {
			return nil, fmt.Errorf("benchmark %q missing from candidate", name)
		}
		for _, metric := range metrics {
			bv := base.Benchmarks[name].Metrics[metric]
			if len(bv) == 0 {
				return nil, fmt.Errorf("benchmark %q has no baseline %s", name, metric)
			}
			cv := c.Metrics[metric]
			if len(cv) == 0 {
				return nil, fmt.Errorf("benchmark %q has no candidate %s", name, metric)
			}
			bmed, q1, q3 := quartiles(bv)
			cmed, _, _ := quartiles(cv)
			r := Regression{
				Name: name, Metric: metric, Base: bmed, Cand: cmed,
				Spread:  q3 - q1,
				Allowed: bmed*(1+maxRegressPct/100) + q3 - q1,
			}
			switch {
			case bmed > 0:
				r.DeltaPct = 100 * (cmed - bmed) / bmed
			case cmed > 0:
				// A zero baseline (e.g. a benchmark that allocated
				// nothing) regressing to non-zero is unbounded.
				r.DeltaPct = math.Inf(1)
			}
			r.Failed = cmed > r.Allowed
			out = append(out, r)
		}
	}
	return out, nil
}

// quartiles returns the median and the lower and upper quartiles of
// xs, interpolating linearly between order statistics.
func quartiles(xs []float64) (median, q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(q float64) float64 {
		pos := q * float64(len(s)-1)
		i := int(pos)
		if i+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[i] + (pos-float64(i))*(s[i+1]-s[i])
	}
	return at(0.5), at(0.25), at(0.75)
}

// splitList parses a comma-separated flag value.
func splitList(s string) []string {
	var out []string
	for _, v := range strings.Split(s, ",") {
		if v = strings.TrimSpace(v); v != "" {
			out = append(out, v)
		}
	}
	return out
}

func runCompare(basePath, candPath, gateMetrics string, maxRegressPct float64) error {
	if candPath == "" {
		return fmt.Errorf("-compare requires -candidate")
	}
	base, err := loadReport(basePath)
	if err != nil {
		return err
	}
	cand, err := loadReport(candPath)
	if err != nil {
		return err
	}
	regs, err := CompareReports(base, cand, splitList(gateMetrics), maxRegressPct)
	if err != nil {
		return err
	}
	failed := 0
	fmt.Printf("%-28s %-10s %14s %12s %14s %14s %9s\n", "benchmark", "metric", "base median", "base spread", "allowed", "cand median", "delta")
	for _, r := range regs {
		mark := "ok"
		if r.Failed {
			mark = "FAIL"
			failed++
		}
		fmt.Printf("%-28s %-10s %14.0f %12.0f %14.0f %14.0f %+8.1f%% %s\n", r.Name, r.Metric, r.Base, r.Spread, r.Allowed, r.Cand, r.DeltaPct, mark)
	}
	if failed > 0 {
		return fmt.Errorf("%d measurement(s) exceeded the baseline median by more than %.0f%% plus its quartile spread over %s", failed, maxRegressPct, basePath)
	}
	return nil
}
