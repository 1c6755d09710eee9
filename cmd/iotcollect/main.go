// Command iotcollect is the standalone NetFlow collector frontend: it
// rebuilds the study's backend index (discovery + validation at a given
// seed), then ingests the ISP's sampled NetFlow feed from the wire —
// framed dictionary streams over TCP, raw v5/v9/IPFIX datagrams over
// UDP, recorded stream files (replayed zero-copy via mmap), or an
// in-process demo export — and prints the Section 5 analysis computed
// entirely from packets.
//
// The exporter and collector must agree on the world (same -seed,
// -scale, -lines), exactly like the paper's collector had to know which
// backend IPs the discovery pipeline had identified.
//
// Usage:
//
//	iotcollect -demo                     # in-process export→collect over TCP loopback
//	iotcollect -export streams/          # record framed streams to stream-N.nf files
//	iotcollect streams/stream-*.nf       # re-ingest recorded streams
//	iotcollect -listen 127.0.0.1:2055    # accept -streams TCP feeds, then report
//	iotcollect -udp 127.0.0.1:2055       # raw v5/v9/IPFIX datagrams until Ctrl-C
//
// With -serve the collector becomes a long-lived daemon instead of a
// batch run: feeds attach and detach at runtime (inbound TCP on
// -feed-listen, files and outbound dials via the HTTP API), the study
// is a sliding trailing window (-window hours), and the window plus
// per-stream dictionary state checkpoint atomically to -checkpoint on
// a timer (-checkpoint-every) and on SIGTERM, so a restart resumes
// without re-ingesting. See docs/operations.md for the runbook.
//
//	iotcollect -serve 127.0.0.1:8080 -feed-listen 127.0.0.1:2055 \
//	    -checkpoint /var/lib/iotmap/ckpt -checkpoint-every 1h streams/*.nf
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"iotmap"
	"iotmap/internal/collector"
	"iotmap/internal/core/flows"
	"iotmap/internal/figures"
	"iotmap/internal/isp"
	"iotmap/internal/serve"
)

func main() {
	seed := flag.Int64("seed", 1, "world seed (must match the exporter)")
	scale := flag.Float64("scale", 0.05, "deployment scale (1.0 = paper-sized)")
	lines := flag.Int("lines", 6000, "simulated subscriber lines")
	threshold := flag.Int("threshold", 100, "scanner exclusion threshold (Figure 5)")
	streams := flag.Int("streams", 4, "concurrent streams to export / accept")
	exportDir := flag.String("export", "", "export framed streams into this directory instead of collecting")
	listen := flag.String("listen", "", "accept framed streams on this TCP address")
	udp := flag.String("udp", "", "ingest raw v5/v9/IPFIX datagrams on this UDP address until interrupted")
	demo := flag.Bool("demo", false, "run the exporter in-process over a TCP loopback")
	vantage := flag.String("vantage", "", "vantage label attributed to every ingested feed (per-stream stats, federation merges)")
	policy := flag.String("policy", "abort", "stream-fault policy: abort, drop (drop bad frames, resync), quarantine (discard faulty streams)")
	stall := flag.Duration("stall", 0, "per-stream read-stall timeout (0 disables the watchdog)")
	serveAddr := flag.String("serve", "", "run as a daemon: HTTP API on this address (file args preload as feeds)")
	feedListen := flag.String("feed-listen", "", "with -serve: accept inbound framed exporter streams on this TCP address")
	windowHours := flag.Int("window", 0, "with -serve: trailing window span in hours, a multiple of 24 (0 = whole study)")
	checkpoint := flag.String("checkpoint", "", "with -serve: checkpoint file path (restored at startup if present)")
	checkpointEvery := flag.Duration("checkpoint-every", 0, "with -serve: periodic checkpoint interval (0 = only on shutdown/demand)")
	pprofFlag := flag.Bool("pprof", false, "with -serve: mount net/http/pprof under /debug/pprof/ on the API address")
	flag.Parse()

	var pol collector.ErrorPolicy
	switch *policy {
	case "abort":
		pol = collector.Abort
	case "drop":
		pol = collector.DropFrame
	case "quarantine":
		pol = collector.QuarantineStream
	default:
		log.Fatalf("iotcollect: unknown -policy %q (want abort, drop, or quarantine)", *policy)
	}

	sys, err := iotmap.New(iotmap.Config{
		Seed: *seed, Scale: *scale, Lines: *lines,
		ScannerThreshold: *threshold, SkipLiveScan: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()
	if err := sys.Discover(context.Background()); err != nil {
		log.Fatal(err)
	}
	if err := sys.ValidateAndLocate(); err != nil {
		log.Fatal(err)
	}
	ispNet, idx, err := sys.TrafficInputs()
	if err != nil {
		log.Fatal(err)
	}
	opts := flows.Options{
		ScannerThreshold: *threshold,
		SamplingRate:     ispNet.Cfg.SamplingRate,
		FocusAlias:       "T1",
		FocusRegion:      "us-east-1",
		Vantage:          *vantage,
	}

	if *exportDir != "" {
		exportStreams(ispNet, *exportDir, *streams)
		return
	}

	if *serveAddr != "" {
		runServe(sys, idx, opts, serveConfig{
			addr: *serveAddr, feedAddr: *feedListen, windowHours: *windowHours,
			checkpoint: *checkpoint, checkpointEvery: *checkpointEvery,
			policy: pol, stall: *stall, vantage: *vantage, preload: flag.Args(),
			pprof: *pprofFlag, seed: *seed,
		})
		return
	}

	col, err := collector.New(collector.Config{
		Index: idx, Days: sys.World.Days, Opts: opts,
		Policy: pol, StallTimeout: *stall,
	})
	if err != nil {
		log.Fatal(err)
	}
	switch {
	case *listen != "":
		l, err := net.Listen("tcp", *listen)
		if err != nil {
			log.Fatal(err)
		}
		defer l.Close()
		// Graceful shutdown: SIGINT/SIGTERM closes the listener, which
		// stops accepting; in-flight streams drain to completion and the
		// final report still prints.
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		go func() {
			<-ctx.Done()
			l.Close()
		}()
		if *streams > 0 {
			log.Printf("iotcollect: waiting for %d framed streams on %s (interrupt to stop early)", *streams, l.Addr())
		} else {
			log.Printf("iotcollect: accepting framed streams on %s until interrupted", l.Addr())
		}
		if err := col.ListenTCP(l, *streams); err != nil {
			log.Fatal(err)
		}
		stop()
	case *udp != "":
		pc, err := net.ListenPacket("udp", *udp)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("iotcollect: ingesting raw v5/v9/IPFIX datagrams on %s (Ctrl-C to analyze)", pc.LocalAddr())
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		go func() {
			<-ctx.Done()
			pc.Close()
		}()
		if err := col.ServeUDP(pc); err != nil {
			log.Fatal(err)
		}
		stop()
	case *demo:
		if err := demoLoopback(ispNet, col, *streams); err != nil {
			log.Fatal(err)
		}
	case flag.NArg() > 0:
		// Recorded files replay through the mapped zero-copy path
		// (mmap on linux): frames decode as slices of the mapping.
		if err := col.IngestFiles(flag.Args()); err != nil {
			log.Fatal(err)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}

	report(sys, col)
}

// exportStreams records the framed feed to stream-N.nf files.
func exportStreams(ispNet *isp.Network, dir string, streams int) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		log.Fatal(err)
	}
	writers := make([]io.Writer, streams)
	files := make([]*os.File, streams)
	for i := range writers {
		f, err := os.Create(filepath.Join(dir, fmt.Sprintf("stream-%d.nf", i)))
		if err != nil {
			log.Fatal(err)
		}
		files[i] = f
		writers[i] = f
	}
	stats, err := ispNet.SimulateLinesToWire(writers, 0)
	for _, f := range files {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("exported %d streams: %d frames, %d batch frames, %d dict entries, %d v4 + %d v6 records, %d flushes\n",
		stats.Streams, stats.Frames, stats.BatchFrames, stats.DictEntries, stats.V4Records, stats.V6Records, stats.Flushes)
}

// demoLoopback runs exporter and collector in one process over real
// TCP connections.
func demoLoopback(ispNet *isp.Network, col *collector.Collector, streams int) error {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer l.Close()
	done := make(chan error, 1)
	go func() { done <- col.ListenTCP(l, streams) }()
	conns := make([]io.Writer, streams)
	for i := range conns {
		c, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			return err
		}
		defer c.Close()
		conns[i] = c
	}
	stats, err := ispNet.SimulateLinesToWire(conns, 0)
	if err != nil {
		return err
	}
	for _, c := range conns {
		c.(net.Conn).Close()
	}
	if err := <-done; err != nil {
		return err
	}
	fmt.Printf("loopback export: %d streams, %d frames, %d batch frames, %d v4 + %d v6 records\n",
		stats.Streams, stats.Frames, stats.BatchFrames, stats.V4Records, stats.V6Records)
	return nil
}

// report finalizes the collector and prints the packet-derived study.
func report(sys *iotmap.System, col *collector.Collector) {
	cc, fcol := col.Finalize()
	sys.Contacts = cc
	sys.Study = fcol.Study()
	st := col.Stats()
	fmt.Printf("collected: %d streams, %d frames, %d v5 packets, %d batch frames (%d records), %d v4 + %d v6 records, %d flushes\n",
		st.Streams, st.Frames, st.V5Packets, st.BatchFrames, st.BatchRecords, st.V4Records, st.V6Records, st.Flushes)
	fmt.Printf("           %d saturated counters, %d rate mismatches, %d bad packets, %.1f GB estimated volume\n",
		st.SaturatedCounters, st.RateMismatches, st.BadPackets, float64(st.ScaledBytes)/1e9)
	if st.DroppedFrames+st.ResyncEvents+st.StallTimeouts+st.Reconnects+st.QuarantinedStreams > 0 {
		fmt.Printf("           degraded: %d dropped frames, %d resyncs, %d stall timeouts, %d reconnects, %d quarantined streams\n",
			st.DroppedFrames, st.ResyncEvents, st.StallTimeouts, st.Reconnects, st.QuarantinedStreams)
	}
	for _, ss := range col.StreamStats() {
		label := ss.Source
		if ss.Vantage != "" {
			label = ss.Vantage + " / " + label
		}
		fmt.Printf("  stream %d (%s): %d frames, %d records, %d bad, %d mismatched rates, %d saturated, %d/%d hours covered\n",
			ss.Stream, label, ss.Frames, ss.V4Records+ss.V6Records, ss.BadPackets, ss.RateMismatches, ss.SaturatedCounters,
			ss.HoursCovered, ss.HoursTotal)
		if ss.DroppedFrames+ss.ResyncEvents+ss.StallTimeouts+ss.Reconnects+ss.QuarantinedStreams > 0 {
			fmt.Printf("            degraded: %d dropped, %d resyncs, %d stalls, %d reconnects, quarantined=%d\n",
				ss.DroppedFrames, ss.ResyncEvents, ss.StallTimeouts, ss.Reconnects, ss.QuarantinedStreams)
		}
	}
	fmt.Println()
	fmt.Println(figures.Figure5(sys))
	fmt.Println(figures.Figure8(sys))
	fmt.Println(figures.Figure9(sys))
	fmt.Println(figures.Figure11(sys))
}

// serveConfig carries the -serve flag set into runServe.
type serveConfig struct {
	addr, feedAddr  string
	windowHours     int
	checkpoint      string
	checkpointEvery time.Duration
	policy          collector.ErrorPolicy
	stall           time.Duration
	vantage         string
	preload         []string
	pprof           bool
	seed            int64
}

// runServe hosts the long-lived collector service until SIGINT/SIGTERM,
// then drains feeds, writes a final checkpoint, and exits.
func runServe(sys *iotmap.System, idx *flows.BackendIndex, opts flows.Options, sc serveConfig) {
	// The figures package renders from the System. The service never
	// overlaps two renders, and lends the fold for one call only, so the
	// System lets go of it before returning.
	render := func(cc *flows.ContactCounter, fcol *flows.Collector) string {
		sys.Contacts, sys.Study = cc, fcol.Study()
		defer func() { sys.Contacts, sys.Study = nil, nil }()
		return strings.Join([]string{
			figures.Figure5(sys), figures.Figure8(sys),
			figures.Figure9(sys), figures.Figure11(sys),
		}, "\n") + "\n"
	}
	svc, err := serve.New(serve.Config{
		Index: idx, Days: sys.World.Days, Opts: opts,
		WindowHours: sc.windowHours, Policy: sc.policy, StallTimeout: sc.stall,
		ReconnectSeed:  sc.seed,
		CheckpointPath: sc.checkpoint, CheckpointEvery: sc.checkpointEvery,
		RenderFigures: render, Logf: log.Printf, EnablePprof: sc.pprof,
	})
	if err != nil {
		log.Fatal(err)
	}
	httpLn, err := net.Listen("tcp", sc.addr)
	if err != nil {
		log.Fatal(err)
	}
	var feedLn net.Listener
	if sc.feedAddr != "" {
		if feedLn, err = net.Listen("tcp", sc.feedAddr); err != nil {
			log.Fatal(err)
		}
		log.Printf("iotcollect: accepting exporter streams on %s", feedLn.Addr())
	}
	for _, path := range sc.preload {
		if _, err := svc.AttachFile(path, path, sc.vantage); err != nil {
			log.Fatal(err)
		}
		log.Printf("iotcollect: attached recorded feed %s", path)
	}
	if svc.Restored {
		log.Printf("iotcollect: resumed window from checkpoint %s", sc.checkpoint)
	}
	log.Printf("iotcollect: serving HTTP API on %s (interrupt to checkpoint and exit)", httpLn.Addr())
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := svc.Run(ctx, httpLn, feedLn); err != nil {
		log.Fatal(err)
	}
}
