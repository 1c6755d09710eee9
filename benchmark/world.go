package main

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"iotmap"
	"iotmap/internal/core/flows"
	"iotmap/internal/figures"
	"iotmap/internal/isp"
	"iotmap/internal/netflow"
)

// sizes fixes how much work one pass of each workload does. The values
// in fullSizes are the benchmark; tests shrink them to stay fast.
//
// Each workload's input is pinned to a record count, not a line count:
// how many records a line emits depends on the devices the seed gives it,
// and over ten seeds a fixed 20 000 lines emitted 354k to 392k records,
// which moved every timing by as much. So the *Lines fields are only the
// population the records are drawn from, and pinRecords keeps the
// shortest prefix of it that emits *Records records.
type sizes struct {
	scale         float64 // deployment scale of the replay and daemon worlds
	replayLines   int     // subscriber lines the recorded study week draws on
	replayRecords int64   // records in the recorded study week
	daemonLines   int     // subscriber lines the chronological feed draws on
	daemonRecords int64   // records in the chronological feed
	daemonDays    int     // length of the daemon's clock in days
	windowHours   int     // the daemon's trailing window
	paperScale    float64 // cmd/paper's deployment scale
	paperLines    int     // subscriber lines cmd/paper's study draws on
	paperRecords  int64   // records cmd/paper's traffic study simulates
	setups        int     // how often set-up runs; setup_s is the median
}

var fullSizes = sizes{
	scale: 0.05, replayLines: 24000, replayRecords: 360000,
	daemonLines: 6000, daemonRecords: 300000, daemonDays: 30, windowHours: 168,
	paperScale: 0.1, paperLines: 24000, paperRecords: 360000,
	setups: 3,
}

// world is a system taken through discovery and validation: what the
// exporter and the collector must agree on before traffic flows.
type world struct {
	sys  *iotmap.System
	net  *isp.Network
	idx  *flows.BackendIndex
	opts flows.Options
	// figMu serializes renders: the figures package reads the study off
	// the System, so two renders must not swap it under each other
	// (cmd/iotcollect -serve holds the same lock).
	figMu sync.Mutex
}

// buildWorld runs the stages every wire workload needs before its first
// record: world, discovery, validation, and the traffic inputs, pinned to
// the given record count. The live TLS scan stays off, as in
// cmd/iotcollect.
func buildWorld(cfg iotmap.Config, records int64) (*world, error) {
	cfg.SkipLiveScan = true
	sys, err := iotmap.New(cfg)
	if err != nil {
		return nil, err
	}
	if err := sys.Discover(context.Background()); err != nil {
		return nil, err
	}
	if err := sys.ValidateAndLocate(); err != nil {
		return nil, err
	}
	net, idx, err := pinRecords(sys, records)
	if err != nil {
		return nil, err
	}
	return &world{sys: sys, net: net, idx: idx, opts: flows.Options{
		ScannerThreshold: sys.Cfg.ScannerThreshold,
		SamplingRate:     net.Cfg.SamplingRate,
		FocusAlias:       "T1",
		FocusRegion:      "us-east-1",
	}}, nil
}

// pinRecords shrinks the system's subscriber population to the shortest
// prefix of lines whose study emits at least the wanted records, and
// returns the traffic inputs of that population. A line's devices and
// traffic depend on the seed and the lines before it, never on how many
// follow, so the prefix is exactly the network a smaller Config.Lines
// builds; setting sys.Cfg.Lines makes the product's own stages
// (TrafficInputs, TrafficStudy) build that network too.
func pinRecords(sys *iotmap.System, want int64) (*isp.Network, *flows.BackendIndex, error) {
	net, _, err := sys.TrafficInputs()
	if err != nil {
		return nil, nil, err
	}
	var seen int64
	keep := 0
	net.SimulateLines(1,
		func(int) func(netflow.Record) { return func(netflow.Record) { seen++ } },
		func(_ int, l *isp.Line) {
			if keep == 0 && seen >= want {
				keep = l.ID + 1
			}
		})
	if keep == 0 {
		return nil, nil, fmt.Errorf("seed %d: %d lines emit %d records, the workload needs %d",
			sys.Cfg.Seed, sys.Cfg.Lines, seen, want)
	}
	sys.Cfg.Lines = keep
	return sys.TrafficInputs()
}

// days is the study clock.
func (w *world) days() []time.Time { return w.sys.World.Days }

// renderDaemon renders what cmd/iotcollect reports and its daemon serves
// on /figures: Figures 5, 8, 9 and 11 of the given study.
func (w *world) renderDaemon(cc *flows.ContactCounter, study *flows.Study) string {
	w.figMu.Lock()
	defer w.figMu.Unlock()
	w.sys.Contacts = cc
	w.sys.Study = study
	return strings.Join([]string{
		figures.Figure5(w.sys), figures.Figure8(w.sys),
		figures.Figure9(w.sys), figures.Figure11(w.sys),
	}, "\n") + "\n"
}

// renderPaper renders every table and figure cmd/paper prints for the
// primary study week.
func renderPaper(sys *iotmap.System) string {
	var b strings.Builder
	for _, render := range []func() string{
		func() string { return figures.Table1(sys) },
		figures.Table2,
		func() string { return figures.Figure3(sys) },
		func() string { return figures.Figure4(sys) },
		func() string { return figures.VantagePointGain(sys) },
		func() string { return figures.ValidationReport(sys) },
		func() string { return figures.Figure5(sys) },
		func() string { return figures.Figure6(sys) },
		func() string { return figures.Figure7(sys) },
		func() string { return figures.Figure8(sys) },
		func() string { return figures.Figure9(sys) },
		func() string { return figures.Figure10(sys) },
		func() string { return figures.Figure11(sys) },
		func() string { return figures.Figure12(sys) },
		func() string { return figures.Figure13(sys) },
		func() string { return figures.Figure14(sys) },
		func() string { return figures.Section62(sys) },
	} {
		fmt.Fprintln(&b, render())
	}
	return b.String()
}

// medianSetup runs setup n times, keeps the last result, and returns the
// median set-up time in seconds. Earlier results are dropped before the
// next one is built, so only one set of inputs is ever live.
func medianSetup[T any](n int, setup func() (T, error), drop func(T)) (T, float64, error) {
	var last T
	var secs []float64
	for i := 0; i < n; i++ {
		if i > 0 {
			drop(last)
		}
		start := time.Now()
		v, err := setup()
		if err != nil {
			return last, 0, err
		}
		secs = append(secs, time.Since(start).Seconds())
		last = v
	}
	return last, median(secs), nil
}
