// Command iotgen synthesizes framed NetFlow feeds at line rate — a
// corpus generator for load-testing the collector's ingest path
// without building a world. It speaks the exporter's dictionary stream
// (the default) and raw IPFIX message streams, over a line space of up
// to 2^22 subscriber addresses drawn from the ISP plan.
//
// Two modes:
//
//	iotgen -out feeds/ -lines 100000        # record stream-N.nf corpus files
//	iotgen -smoke -duration 5s -min-rps 1e5 # pipe into an in-process collector,
//	                                        # assert throughput and zero bad packets
//
// The smoke mode is the CI ingest-load gate: generators write framed
// feeds into collector pipes for the given duration, and the run fails
// unless the collector folded records above the floor with zero
// BadPackets and zero degradation counters.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"net/netip"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"iotmap/internal/collector"
	"iotmap/internal/core/flows"
	"iotmap/internal/geo"
	"iotmap/internal/isp"
	"iotmap/internal/netflow"
	"iotmap/internal/simrand"
)

// maxLines caps the subscriber space at the plan's 2^22 addressable
// slots per vantage — the scale the ingest path is sized for.
const maxLines = 1 << 22

// studyEpoch anchors hour 0 of every generated feed. Self-contained:
// iotgen never builds a world, so the epoch is fixed rather than
// derived (any hour-aligned instant works; the collector rebases).
var studyEpoch = time.Date(2022, 2, 28, 0, 0, 0, 0, time.UTC)

type genConfig struct {
	format   string
	streams  int
	lines    int
	records  int // flow records per line flush
	backends int
	hours    int
	rate     uint32
	seed     int64
}

// backendPool deterministically fills 16.0.0.0/8 — inside the backend
// address space, disjoint from the line plan by construction.
func backendPool(n int) []netip.Addr {
	pool := make([]netip.Addr, n)
	for i := range pool {
		pool[i] = netip.AddrFrom4([4]byte{16, byte(i >> 16), byte(i >> 8), byte(i)})
	}
	return pool
}

// gen emits one stream's feed. Each line flush is records flows from
// one plan address to random pool backends, hours spread across the
// study window. stop is polled between lines so the smoke mode can cut
// generation at its deadline; gen returns the flow records written.
type gen struct {
	cfg  genConfig
	pool []netip.Addr
	rng  *simrand.Source

	recs    []netflow.Record
	backIdx []uint32 // pool index (== dict ID) per record in recs
	batch   netflow.RecordBatch
	buf     []byte
	seq     uint32
}

func newGen(cfg genConfig, stream int, pool []netip.Addr) *gen {
	return &gen{cfg: cfg, pool: pool, rng: simrand.DeriveN(cfg.seed, "iotgen", int64(stream))}
}

// fill synthesizes one line's flow records (shared by every format).
func (g *gen) fill(line int) {
	g.recs = g.recs[:0]
	g.backIdx = g.backIdx[:0]
	addr := isp.LineV4Addr(0, line)
	for r := 0; r < g.cfg.records; r++ {
		bi := g.rng.Intn(len(g.pool))
		back := g.pool[bi]
		g.backIdx = append(g.backIdx, uint32(bi))
		hour := g.rng.Intn(g.cfg.hours)
		g.recs = append(g.recs, netflow.Record{
			Src: back, Dst: addr,
			SrcPort: 8883, DstPort: uint16(20000 + g.rng.Intn(40000)),
			Proto: netflow.ProtoTCP,
			Bytes: uint64(200 + g.rng.Intn(1400)), Packets: uint64(1 + g.rng.Intn(8)),
			Start: studyEpoch.Add(time.Duration(hour) * time.Hour),
		})
	}
}

// emitDict appends one line's hello-negotiated dictionary feed: the
// stream-local dict entry for the line (first visit only — on
// wrap-around the ID is already registered), a batch of dense-ID rows,
// and a flush. The pool-wide backend dictionary was announced once up
// front at base 0, so a record's pool index IS its dict ID.
func (g *gen) emitDict(dictID, line int, register bool) error {
	var err error
	if register {
		g.buf, err = netflow.AppendDictFrame(g.buf, netflow.FrameLineDict, uint32(dictID), []netip.Addr{isp.LineV4Addr(0, line)})
		if err != nil {
			return err
		}
	}
	g.batch.Reset()
	for i := range g.recs {
		r := &g.recs[i]
		hour := int32(r.Start.Sub(studyEpoch) / time.Hour)
		g.batch.Append(uint32(dictID), g.backIdx[i], true, hour, r.SrcPort, r.Proto, r.Bytes, r.Packets)
	}
	g.buf, _, err = netflow.AppendBatchFrames(g.buf, &g.batch)
	if err != nil {
		return err
	}
	g.buf = netflow.AppendFlushFrame(g.buf)
	return nil
}

// emitIPFIX appends one line's records as a raw IPFIX message (no
// framing — the collector's IngestIPFIX walks message lengths).
func (g *gen) emitIPFIX(stream int, withTemplates bool) error {
	var err error
	g.buf, err = netflow.AppendIPFIXMessage(g.buf, uint32(stream), g.seq, withTemplates, g.recs)
	g.seq += uint32(len(g.recs))
	return err
}

// run generates the stream, flushing the byte buffer to w per line.
// With loop set it wraps the line space until stop fires (the smoke
// mode's duration window); otherwise one pass over the stream's share
// of the line space records the corpus.
func (g *gen) run(w io.Writer, stream int, loop bool, stop func() bool) (int64, error) {
	perStream := g.cfg.lines / g.cfg.streams
	if perStream == 0 {
		perStream = 1
	}
	var written int64
	if g.cfg.format == "dict" {
		g.buf = netflow.AppendHelloFrame(g.buf[:0], g.cfg.rate, studyEpoch.Unix())
		var err error
		if g.buf, err = netflow.AppendDictFrame(g.buf, netflow.FrameBackendDict, 0, g.pool); err != nil {
			return 0, err
		}
		if _, err := w.Write(g.buf); err != nil {
			return 0, err
		}
	}
	for ord := 0; !stop(); ord++ {
		if !loop && ord >= perStream {
			break
		}
		slot := ord % perStream
		// Stream k owns plan slots k, k+streams, k+2*streams, … so
		// streams never disagree about a line address.
		line := (stream + slot*g.cfg.streams) % g.cfg.lines
		g.fill(line)
		g.buf = g.buf[:0]
		var err error
		switch g.cfg.format {
		case "dict":
			err = g.emitDict(slot, line, ord < perStream)
		case "ipfix":
			err = g.emitIPFIX(stream, ord == 0)
		}
		if err != nil {
			return written, err
		}
		if _, err := w.Write(g.buf); err != nil {
			return written, err
		}
		written += int64(len(g.recs))
	}
	return written, nil
}

func main() {
	cfg := genConfig{}
	flag.StringVar(&cfg.format, "format", "dict", "feed encoding: dict (columnar dictionary batches), ipfix (raw IPFIX message stream)")
	flag.IntVar(&cfg.streams, "streams", 4, "concurrent streams to generate")
	flag.IntVar(&cfg.lines, "lines", 1<<16, "subscriber line space (max 2^22)")
	flag.IntVar(&cfg.records, "records", 16, "flow records per line flush")
	flag.IntVar(&cfg.backends, "backends", 512, "backend pool size")
	flag.IntVar(&cfg.hours, "hours", 168, "study hours spanned by the feed")
	rate := flag.Uint("rate", 100, "advertised sampling rate")
	flag.Int64Var(&cfg.seed, "seed", 1, "generator seed")
	out := flag.String("out", "", "write stream-N.nf corpus files into this directory")
	smoke := flag.Bool("smoke", false, "drive an in-process collector over pipes and assert ingest health")
	duration := flag.Duration("duration", 5*time.Second, "smoke: generation window")
	minRPS := flag.Float64("min-rps", 0, "smoke: fail unless ingested records/sec meets this floor")
	winHours := flag.Int("window", 0, "smoke: fold into a sliding window of this many hours (0 = batch mode; must cover -hours so nothing arrives late)")
	maxHeapMB := flag.Uint64("max-heap-mb", 0, "smoke: fail if post-ingest heap exceeds this many MiB (0 = no bound)")
	flag.Parse()
	cfg.rate = uint32(*rate)

	switch cfg.format {
	case "dict", "ipfix":
	default:
		log.Fatalf("iotgen: unknown -format %q (want dict or ipfix)", cfg.format)
	}
	if cfg.lines <= 0 || cfg.lines > maxLines {
		log.Fatalf("iotgen: -lines %d out of range (1..%d)", cfg.lines, maxLines)
	}
	if cfg.streams <= 0 || cfg.records <= 0 {
		log.Fatal("iotgen: -streams and -records must be positive")
	}
	if cfg.backends <= 0 || cfg.backends > 1<<20 {
		log.Fatalf("iotgen: -backends %d out of range (1..%d)", cfg.backends, 1<<20)
	}
	if cfg.hours <= 0 || cfg.hours > 0xFFFF {
		log.Fatalf("iotgen: -hours %d out of range", cfg.hours)
	}

	if *winHours != 0 && (*winHours%24 != 0 || *winHours < cfg.hours) {
		// The generator scatters each line's records across all -hours
		// uniformly, not chronologically, so a window narrower than the
		// feed would drop a timing-dependent share as late — the smoke's
		// zero-late assertion needs the whole feed to fit.
		log.Fatalf("iotgen: -window %d must be a multiple of 24 covering -hours %d", *winHours, cfg.hours)
	}
	pool := backendPool(cfg.backends)
	switch {
	case *smoke:
		if err := runSmoke(cfg, pool, *duration, *minRPS, *winHours, *maxHeapMB); err != nil {
			log.Fatal(err)
		}
	case *out != "":
		if err := writeCorpus(cfg, pool, *out); err != nil {
			log.Fatal(err)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// writeCorpus records the full line space into stream-N.nf files.
func writeCorpus(cfg genConfig, pool []netip.Addr, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var total int64
	for s := 0; s < cfg.streams; s++ {
		f, err := os.Create(filepath.Join(dir, fmt.Sprintf("stream-%d.nf", s)))
		if err != nil {
			return err
		}
		n, genErr := newGen(cfg, s, pool).run(f, s, false, func() bool { return false })
		if cerr := f.Close(); genErr == nil {
			genErr = cerr
		}
		if genErr != nil {
			return genErr
		}
		total += n
	}
	fmt.Printf("iotgen: wrote %d %s records across %d streams to %s\n", total, cfg.format, cfg.streams, dir)
	return nil
}

// smokeIndex classifies the generator's backend pool so the collector
// folds every record.
func smokeIndex(pool []netip.Addr) *flows.BackendIndex {
	idx := flows.NewBackendIndex()
	aliases := []string{"T1", "T2", "T3"}
	for i, a := range pool {
		idx.Add(a, aliases[i%len(aliases)], geo.Europe, "eu-central-1", true)
	}
	return idx
}

// runSmoke drives an in-process collector at line rate for the window
// and asserts the feed ingested clean and fast enough. With winHours >
// 0 every stream folds into one shared sliding flows.Window (the
// daemon's shape) and the run additionally asserts nothing arrived
// late; with maxHeapMB > 0 the post-ingest live heap must stay under
// the bound.
func runSmoke(cfg genConfig, pool []netip.Addr, window time.Duration, minRPS float64, winHours int, maxHeapMB uint64) error {
	days := make([]time.Time, (cfg.hours+23)/24)
	for i := range days {
		days[i] = studyEpoch.AddDate(0, 0, i)
	}
	idx := smokeIndex(pool)
	var win *flows.Window
	if winHours > 0 {
		var err error
		// SamplingRate 1: the collector rescales at the stream boundary
		// and hands the window already-scaled records.
		win, err = flows.NewWindow(idx, studyEpoch, winHours, flows.Options{SamplingRate: 1})
		if err != nil {
			return err
		}
	}
	col, err := collector.New(collector.Config{
		Index: idx, Days: days,
		Opts:   flows.Options{SamplingRate: cfg.rate},
		Window: win,
	})
	if err != nil {
		return err
	}

	deadline := time.Now().Add(window)
	stop := func() bool { return time.Now().After(deadline) }
	var (
		wg        sync.WaitGroup
		mu        sync.Mutex
		generated int64
		genErr    error
	)
	spawn := func(stream int, w io.Writer) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n, err := newGen(cfg, stream, pool).run(w, stream, true, stop)
			mu.Lock()
			generated += n
			if err != nil && genErr == nil {
				genErr = fmt.Errorf("iotgen: stream %d: %w", stream, err)
			}
			mu.Unlock()
		}()
	}

	start := time.Now()
	var wait func() error
	if cfg.format == "ipfix" {
		// IPFIX is a raw message stream, not framed: feed it through
		// IngestIPFIX over plain pipes.
		errs := make(chan error, cfg.streams)
		closers := make([]*io.PipeWriter, cfg.streams)
		for s := 0; s < cfg.streams; s++ {
			pr, pw := io.Pipe()
			closers[s] = pw
			name := fmt.Sprintf("iotgen-%d", s)
			go func() { errs <- col.IngestIPFIX(name, pr) }()
			spawn(s, pw)
		}
		wait = func() error {
			for _, pw := range closers {
				pw.Close()
			}
			var first error
			for range closers {
				if err := <-errs; err != nil && first == nil {
					first = err
				}
			}
			return first
		}
	} else {
		writers, w := col.IngestPipes(cfg.streams)
		wait = w
		for s := 0; s < cfg.streams; s++ {
			spawn(s, writers[s])
		}
	}
	wg.Wait()
	if err := wait(); err != nil {
		return err
	}
	elapsed := time.Since(start)
	if genErr != nil {
		return genErr
	}

	st := col.Stats()
	ingested := st.V4Records + st.V6Records
	rps := float64(ingested) / elapsed.Seconds()
	fmt.Printf("iotgen smoke: %s format, %d streams, %d records generated, %d ingested in %s (%.0f records/sec)\n",
		cfg.format, cfg.streams, generated, ingested, elapsed.Round(time.Millisecond), rps)
	fmt.Printf("              %d frames, %d batch frames, %d dict entries, %d template packets, %d bad packets\n",
		st.Frames, st.BatchFrames, st.DictEntries, st.TemplatePackets, st.BadPackets)
	if st.BadPackets != 0 {
		return fmt.Errorf("iotgen: %d bad packets on a clean feed", st.BadPackets)
	}
	if st.DroppedFrames+st.ResyncEvents+st.QuarantinedStreams+st.StallTimeouts != 0 {
		return fmt.Errorf("iotgen: clean feed reported degradation: %+v", st)
	}
	if uint64(generated) != ingested {
		return fmt.Errorf("iotgen: generated %d records but collector folded %d", generated, ingested)
	}
	if minRPS > 0 && rps < minRPS {
		return fmt.Errorf("iotgen: %.0f records/sec under the %.0f floor", rps, minRPS)
	}
	if win != nil {
		wst := win.Stats()
		fmt.Printf("              window: %+v\n", wst)
		if wst.LateRecords != 0 || wst.PreWindowRecords != 0 {
			return fmt.Errorf("iotgen: window dropped records on an in-window feed: %+v", wst)
		}
		if _, s := win.Study(); ingested > 0 && s.Hours() == 0 {
			return fmt.Errorf("iotgen: window study empty after folding %d records", ingested)
		}
	}
	if maxHeapMB > 0 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		heapMB := ms.HeapAlloc >> 20
		fmt.Printf("              live heap after ingest: %d MiB (bound %d)\n", heapMB, maxHeapMB)
		if heapMB > maxHeapMB {
			return fmt.Errorf("iotgen: live heap %d MiB exceeds the %d MiB bound", heapMB, maxHeapMB)
		}
	}
	return nil
}
