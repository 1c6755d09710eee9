// Livestudy: the long-lived collector service, end to end — the
// docs/operations.md runbook as a program. One recorded NetFlow stream
// is ingested by a daemon that checkpoints and shuts down; a second
// daemon restores the checkpoint and must render byte-identical
// figures; a second stream then attaches live over the HTTP API and
// moves them. Every step talks to the service the way an operator
// would: through its HTTP endpoints.
//
//	go run ./examples/livestudy
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"iotmap/internal/collector"
	"iotmap/internal/core/flows"
	"iotmap/internal/isp"
	"iotmap/internal/serve"
	"iotmap/internal/world"
)

// study holds the shared world both the exporter and the collector are
// built from — the same contract the paper's collector relied on.
type study struct {
	idx  *flows.BackendIndex
	days []time.Time
	opts flows.Options
}

func buildStudy() (*study, [][]byte, error) {
	w, err := world.Build(world.Config{Seed: 7, Scale: 0.02})
	if err != nil {
		return nil, nil, err
	}
	n, err := isp.NewNetwork(isp.Config{Seed: 7, Lines: 400}, w)
	if err != nil {
		return nil, nil, err
	}
	idx := flows.NewBackendIndex()
	for _, s := range w.AllServers() {
		idx.Add(s.Addr, w.AliasOf(s.Provider), s.Region.Continent, s.Region.Region, s.Class.CertVisible())
	}
	var rec0, rec1 bytes.Buffer
	if _, err := n.SimulateLinesToWire([]io.Writer{&rec0, &rec1}, 0); err != nil {
		return nil, nil, err
	}
	return &study{idx: idx, days: w.Days, opts: flows.Options{
		ScannerThreshold: 100,
		SamplingRate:     n.Cfg.SamplingRate,
		FocusAlias:       "T1",
		FocusRegion:      "us-east-1",
	}}, [][]byte{rec0.Bytes(), rec1.Bytes()}, nil
}

// renderFigures is a compact deterministic rendering: the Figure 5
// scanner curve plus per-provider volume and visibility. Byte equality
// of this text across the kill-resume is the restore-correctness check.
func renderFigures(cc *flows.ContactCounter, col *flows.Collector) string {
	s := col.Study()
	var b strings.Builder
	for _, p := range cc.Curve([]int{10, 100, 1000}) {
		fmt.Fprintf(&b, "  curve@%-5d %6d scanners  %6.2f%% coverage\n", p.Threshold, p.Scanners, p.CoveragePct)
	}
	for _, alias := range s.Aliases() {
		v4, v6 := s.Visibility(alias)
		fmt.Fprintf(&b, "  %-10s down %12.0f  up %12.0f  vis %.2f/%.2f\n",
			alias, s.Downstream(alias).Total(), s.Upstream(alias).Total(), v4, v6)
	}
	return b.String()
}

// daemon is one service lifetime: Run on a loopback listener, an HTTP
// client pointed at it, and a cancel that drains feeds and writes the
// final checkpoint before Run returns.
type daemon struct {
	svc    *serve.Service
	base   string
	cl     *http.Client
	cancel context.CancelFunc
	done   chan error
}

func startDaemon(st *study, ckpt string) (*daemon, error) {
	svc, err := serve.New(serve.Config{
		Index: st.idx, Days: st.days, Opts: st.opts,
		Policy: collector.DropFrame, CheckpointPath: ckpt,
		RenderFigures: renderFigures,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	d := &daemon{
		svc:    svc,
		base:   "http://" + ln.Addr().String(),
		cl:     &http.Client{Timeout: 10 * time.Second},
		cancel: cancel,
		done:   make(chan error, 1),
	}
	go func() { d.done <- svc.Run(ctx, ln, nil) }()
	return d, nil
}

func (d *daemon) stop() error {
	d.cancel()
	return <-d.done
}

func (d *daemon) get(path string) string {
	resp, err := d.cl.Get(d.base + path)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("GET %s: %d: %s", path, resp.StatusCode, body)
	}
	return string(body)
}

func (d *daemon) attachFile(path, name string) {
	body, _ := json.Marshal(map[string]string{"path": path, "name": name})
	resp, err := d.cl.Post(d.base+"/streams/file", "application/json", bytes.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("POST /streams/file: %d", resp.StatusCode)
	}
}

// waitSettled polls /streams until no feed is still running.
func (d *daemon) waitSettled() {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		var out struct {
			Feeds []serve.Feed `json:"feeds"`
		}
		if err := json.Unmarshal([]byte(d.get("/streams")), &out); err != nil {
			log.Fatal(err)
		}
		running := false
		for _, f := range out.Feeds {
			if f.Status == "failed" {
				log.Fatalf("feed %q failed: %s", f.Name, f.Error)
			}
			running = running || f.Status == "running"
		}
		if !running {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	log.Fatal("feeds never settled")
}

func main() {
	log.SetFlags(0)
	st, recs, err := buildStudy()
	if err != nil {
		log.Fatal(err)
	}
	dir, err := os.MkdirTemp("", "livestudy")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	stream0 := filepath.Join(dir, "stream-0.nf")
	stream1 := filepath.Join(dir, "stream-1.nf")
	for p, rec := range map[string][]byte{stream0: recs[0], stream1: recs[1]} {
		if err := os.WriteFile(p, rec, 0o644); err != nil {
			log.Fatal(err)
		}
	}
	ckpt := filepath.Join(dir, "ckpt")

	fmt.Println("== 1. first daemon: ingest stream-0, checkpoint on shutdown")
	d1, err := startDaemon(st, ckpt)
	if err != nil {
		log.Fatal(err)
	}
	d1.attachFile(stream0, "stream-0")
	d1.waitSettled()
	before := d1.get("/figures")
	fmt.Print(before)
	if err := d1.stop(); err != nil {
		log.Fatal(err)
	}
	info, err := os.Stat(ckpt)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("   shutdown wrote %s (%d bytes)\n\n", ckpt, info.Size())

	fmt.Println("== 2. second daemon: restore the checkpoint, figures must not move")
	d2, err := startDaemon(st, ckpt)
	if err != nil {
		log.Fatal(err)
	}
	if !d2.svc.Restored {
		log.Fatal("second daemon did not restore the checkpoint")
	}
	after := d2.get("/figures")
	if after != before {
		log.Fatal("restored figures differ from pre-shutdown figures")
	}
	fmt.Println("   /figures byte-identical across the restart ✓")

	fmt.Println("\n== 3. live-attach stream-1 over the HTTP API")
	d2.attachFile(stream1, "stream-1")
	d2.waitSettled()
	final := d2.get("/figures")
	if final == after {
		log.Fatal("second stream did not change the figures")
	}
	fmt.Print(final)

	fmt.Println("\n== 4. window ledger")
	var win struct {
		Epoch   string `json:"epoch"`
		End     string `json:"end"`
		Buckets []struct {
			Records uint64
		} `json:"buckets"`
		Stats struct {
			PreWindowRecords, LateRecords, EvictedHours, EvictedRecords uint64
		} `json:"stats"`
	}
	if err := json.Unmarshal([]byte(d2.get("/window")), &win); err != nil {
		log.Fatal(err)
	}
	var records uint64
	for _, b := range win.Buckets {
		records += b.Records
	}
	fmt.Printf("   %s .. %s: %d live hour buckets, %d records\n",
		win.Epoch, win.End, len(win.Buckets), records)
	fmt.Printf("   dropped: %d pre-window, %d late; evicted: %d hours, %d records\n",
		win.Stats.PreWindowRecords, win.Stats.LateRecords,
		win.Stats.EvictedHours, win.Stats.EvictedRecords)
	if err := d2.stop(); err != nil {
		log.Fatal(err)
	}
}
