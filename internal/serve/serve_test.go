package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"iotmap/internal/collector"
	"iotmap/internal/core/flows"
	"iotmap/internal/iotserver"
	"iotmap/internal/isp"
	"iotmap/internal/netflow"
	"iotmap/internal/world"
)

// fixture is the serve-level test world: an index, a study frame, and
// one recorded dictionary-format stream.
type fixture struct {
	idx  *flows.BackendIndex
	days []time.Time
	opts flows.Options
	rec  []byte
}

func buildFixture(t testing.TB) *fixture {
	t.Helper()
	w, err := world.Build(world.Config{Seed: 23, Scale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	n, err := isp.NewNetwork(isp.Config{Seed: 23, Lines: 300}, w)
	if err != nil {
		t.Fatal(err)
	}
	idx := flows.NewBackendIndex()
	for _, s := range w.AllServers() {
		idx.Add(s.Addr, w.AliasOf(s.Provider), s.Region.Continent, s.Region.Region, certVisible(s.Class))
	}
	var rec bytes.Buffer
	if _, err := n.SimulateLinesToWire([]io.Writer{&rec}, 0); err != nil {
		t.Fatal(err)
	}
	return &fixture{idx: idx, days: w.Days, rec: rec.Bytes(), opts: flows.Options{
		ScannerThreshold: 100,
		SamplingRate:     n.Cfg.SamplingRate,
		FocusAlias:       "T1",
		FocusRegion:      "us-east-1",
	}}
}

// renderFigures is a deterministic text rendering standing in for the
// real figures package (which needs the full System); byte equality of
// this output across a kill-resume is the restore-correctness check.
func renderFigures(cc *flows.ContactCounter, col *flows.Collector) string {
	study := col.Study()
	var b strings.Builder
	for _, p := range cc.Curve([]int{10, 100, 1000}) {
		fmt.Fprintf(&b, "curve %d: %d scanners %.4f%%\n", p.Threshold, p.Scanners, p.CoveragePct)
	}
	for _, alias := range study.Aliases() {
		v4, v6 := study.Visibility(alias)
		fmt.Fprintf(&b, "%s: down %.0f up %.0f lines %.0f vis %.2f/%.2f\n",
			alias, study.Downstream(alias).Total(), study.Upstream(alias).Total(),
			study.ActiveLines(alias).Total(), v4, v6)
	}
	return b.String()
}

func (f *fixture) service(t testing.TB, ckpt string) *Service {
	t.Helper()
	s, err := New(Config{
		Index: f.idx, Days: f.days, Opts: f.opts,
		Policy: collector.DropFrame, CheckpointPath: ckpt,
		RenderFigures: renderFigures,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// get fetches a path from the test server and returns the body.
func get(t testing.TB, srv *httptest.Server, path string) string {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d: %s", path, resp.StatusCode, body)
	}
	return string(body)
}

// waitSettled polls /streams until every feed has left "running".
func waitSettled(t testing.TB, srv *httptest.Server) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		var out struct {
			Feeds []Feed `json:"feeds"`
		}
		if err := json.Unmarshal([]byte(get(t, srv, "/streams")), &out); err != nil {
			t.Fatal(err)
		}
		running := false
		for _, f := range out.Feeds {
			if f.Status == "running" {
				running = true
			}
			if f.Status == "failed" {
				t.Fatalf("feed %d failed: %s", f.ID, f.Error)
			}
		}
		if !running && len(out.Feeds) > 0 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("feeds never settled")
}

// TestServiceEndpoints drives the HTTP API end to end: attach a
// recorded file, watch it complete, read the live figures in both
// renderings, checkpoint on demand, and detach-404 on a bogus ID.
func TestServiceEndpoints(t *testing.T) {
	f := buildFixture(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "feed.nf")
	if err := os.WriteFile(path, f.rec, 0o644); err != nil {
		t.Fatal(err)
	}
	s := f.service(t, filepath.Join(dir, "ckpt"))
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	body := `{"path":` + jsonStr(path) + `,"name":"feed","vantage":"isp-a"}`
	resp, err := srv.Client().Post(srv.URL+"/streams/file", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("attach: %d", resp.StatusCode)
	}
	resp.Body.Close()
	waitSettled(t, srv)

	figs := get(t, srv, "/figures")
	if !strings.Contains(figs, "curve") || !strings.Contains(figs, "down") {
		t.Fatalf("figures text incomplete:\n%s", figs)
	}
	var jf figuresJSON
	if err := json.Unmarshal([]byte(get(t, srv, "/figures?format=json")), &jf); err != nil {
		t.Fatal(err)
	}
	if len(jf.Aliases) == 0 || len(jf.ScannerCurve) == 0 {
		t.Fatalf("figures JSON empty: %+v", jf)
	}
	var stats struct {
		Wire collector.Stats `json:"wire"`
	}
	if err := json.Unmarshal([]byte(get(t, srv, "/stats")), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Wire.BatchRecords == 0 {
		t.Fatalf("no batch records counted: %+v", stats.Wire)
	}
	var win struct {
		Buckets []flows.BucketStat `json:"buckets"`
	}
	if err := json.Unmarshal([]byte(get(t, srv, "/window")), &win); err != nil {
		t.Fatal(err)
	}
	if len(win.Buckets) == 0 {
		t.Fatal("no live window buckets")
	}

	resp, err = srv.Client().Post(srv.URL+"/checkpoint", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("checkpoint: %d", resp.StatusCode)
	}
	if _, err := os.Stat(filepath.Join(dir, "ckpt")); err != nil {
		t.Fatalf("checkpoint file missing: %v", err)
	}

	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/streams/99", nil)
	resp, err = srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("detach bogus feed: %d, want 404", resp.StatusCode)
	}
}

// jsonStr JSON-quotes a string (paths may contain backslashes).
func jsonStr(s string) string {
	b, _ := json.Marshal(s)
	return string(b)
}

// TestHealthzAndPprof: /healthz answers on every service; /debug/pprof/
// is 404 unless Config.EnablePprof opted in.
func TestHealthzAndPprof(t *testing.T) {
	f := buildFixture(t)
	s := f.service(t, "")
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	var hz struct {
		Status  string `json:"status"`
		EndHour int64  `json:"endHour"`
	}
	if err := json.Unmarshal([]byte(get(t, srv, "/healthz")), &hz); err != nil {
		t.Fatal(err)
	}
	if hz.Status != "ok" {
		t.Fatalf("healthz status %q, want ok", hz.Status)
	}
	resp, err := srv.Client().Get(srv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof without opt-in: %d, want 404", resp.StatusCode)
	}

	sp, err := New(Config{
		Index: f.idx, Days: f.days, Opts: f.opts,
		Policy: collector.DropFrame, RenderFigures: renderFigures,
		EnablePprof: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	psrv := httptest.NewServer(sp.Handler())
	defer psrv.Close()
	if body := get(t, psrv, "/debug/pprof/cmdline"); body == "" {
		t.Fatal("pprof cmdline empty")
	}
	if !strings.Contains(get(t, psrv, "/debug/pprof/"), "goroutine") {
		t.Fatal("pprof index incomplete")
	}
}

// TestServeFeedsTCP: an exporter dialing the feed listener is ingested
// as a registry "conn" feed.
func TestServeFeedsTCP(t *testing.T) {
	f := buildFixture(t)
	s := f.service(t, "")
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go s.ServeFeeds(ln)

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(f.rec); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	waitSettled(t, srv)

	if got := renderFigures(s.col.Finalize()); !strings.Contains(got, "down") {
		t.Fatalf("figures empty after TCP feed:\n%s", got)
	}
}

// splitAtFlush cuts a recorded stream after the flush frame nearest the
// midpoint, producing two independently valid streams (flush frames
// delimit line batches, so classification is unaffected by the cut).
func splitAtFlush(t testing.TB, data []byte) (partA, partB []byte) {
	t.Helper()
	total := 0
	fr := netflow.NewFrameReader(bytes.NewReader(data))
	for {
		fme, err := fr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if fme.Type == netflow.FrameFlush {
			total++
		}
	}
	if total < 2 {
		t.Fatalf("stream has %d flush frames; cannot split", total)
	}
	seen := 0
	fr = netflow.NewFrameReader(bytes.NewReader(data))
	for {
		fme, err := fr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if seen < total/2 {
			partA, err = netflow.AppendFrame(partA, fme.Type, fme.Payload)
		} else {
			partB, err = netflow.AppendFrame(partB, fme.Type, fme.Payload)
		}
		if err != nil {
			t.Fatal(err)
		}
		if fme.Type == netflow.FrameFlush {
			seen++
		}
	}
	return partA, partB
}

// TestServiceKillResume is the daemon-level acceptance property: a feed
// cut at a flush boundary, ingested half by service 1 (which then shuts
// down, checkpointing), half by a restarted service 2 (which restores),
// yields /figures byte-identical to one uninterrupted service.
func TestServiceKillResume(t *testing.T) {
	f := buildFixture(t)
	dir := t.TempDir()
	partA, partB := splitAtFlush(t, f.rec)
	write := func(name string, data []byte) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	full := write("full.nf", f.rec)
	pa := write("a.nf", partA)
	pb := write("b.nf", partB)
	ckpt := filepath.Join(dir, "ckpt")

	// runService drives one service lifetime over Run (real listener,
	// final checkpoint on cancel) and returns its /figures text.
	runService := func(ckptPath string, feedPath string, wantRestored bool) string {
		s := f.service(t, ckptPath)
		if s.Restored != wantRestored {
			t.Fatalf("Restored = %v, want %v", s.Restored, wantRestored)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() { done <- s.Run(ctx, ln, nil) }()
		base := "http://" + ln.Addr().String()
		cl := &http.Client{Timeout: 10 * time.Second}
		post := func(path, body string) {
			resp, err := cl.Post(base+path, "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("POST %s: %d", path, resp.StatusCode)
			}
		}
		post("/streams/file", `{"path":`+jsonStr(feedPath)+`,"name":"feed"}`)
		deadline := time.Now().Add(30 * time.Second)
		for {
			if time.Now().After(deadline) {
				t.Fatal("feed never settled")
			}
			resp, err := cl.Get(base + "/streams")
			if err != nil {
				t.Fatal(err)
			}
			var out struct {
				Feeds []Feed `json:"feeds"`
			}
			err = json.NewDecoder(resp.Body).Decode(&out)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if len(out.Feeds) == 1 && out.Feeds[0].Status == "done" {
				break
			}
			if len(out.Feeds) == 1 && out.Feeds[0].Status == "failed" {
				t.Fatalf("feed failed: %s", out.Feeds[0].Error)
			}
			time.Sleep(10 * time.Millisecond)
		}
		resp, err := cl.Get(base + "/figures")
		if err != nil {
			t.Fatal(err)
		}
		figs, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		cancel()
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		return string(figs)
	}

	ref := runService(filepath.Join(dir, "ckpt-ref"), full, false)
	runService(ckpt, pa, false)
	resumed := runService(ckpt, pb, true)
	if resumed != ref {
		t.Fatalf("resumed figures differ from uninterrupted run:\n--- uninterrupted\n%s\n--- resumed\n%s", ref, resumed)
	}
}

// hourlyFeed simulates the fixture world's week and groups its records
// by study hour, so a test can feed a window chronologically.
func hourlyFeed(t testing.TB, days []time.Time) [][]netflow.Record {
	t.Helper()
	w, err := world.Build(world.Config{Seed: 23, Scale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	n, err := isp.NewNetwork(isp.Config{Seed: 23, Lines: 300}, w)
	if err != nil {
		t.Fatal(err)
	}
	hourly := make([][]netflow.Record, len(days)*24)
	for day := range days {
		n.SimulateDay(day, func(r netflow.Record) {
			if h := int(r.Start.Sub(days[0]) / time.Hour); h >= 0 && h < len(hourly) {
				hourly[h] = append(hourly[h], r)
			}
		})
	}
	return hourly
}

// feedHour ingests one hour's records into win as one flush.
func feedHour(win *flows.Window, tables *flows.WireTables, recs []netflow.Record) {
	var batch netflow.RecordBatch
	for _, r := range recs {
		tables.AppendRecord(&batch, r)
	}
	win.IngestBatch(tables, &batch)
}

// refWindow is a fresh in-process window over the service's frame,
// fed the same hours.
func refWindow(t testing.TB, f *fixture, hours int, hourly [][]netflow.Record) *flows.Window {
	t.Helper()
	opts := f.opts
	opts.SamplingRate = 1
	win, err := flows.NewWindow(f.idx, f.days[0], hours, opts)
	if err != nil {
		t.Fatal(err)
	}
	tables := win.NewWireTables()
	for _, recs := range hourly {
		feedHour(win, tables, recs)
	}
	return win
}

// summaryOf is the JSON summary of win's current fold, as a client
// decodes it.
func summaryOf(t testing.TB, win *flows.Window) figuresJSON {
	t.Helper()
	var out figuresJSON
	win.View(func(cc *flows.ContactCounter, col *flows.Collector, start, end time.Time) {
		out = summarize(cc, col.Study(), start, end)
	})
	b, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	out = figuresJSON{}
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestFiguresJSONFrameIsTheFolds: GET /figures?format=json reports the
// frame of the fold its study came from, even when a flush advances the
// window while the summary is built.
func TestFiguresJSONFrameIsTheFolds(t *testing.T) {
	f := buildFixture(t)
	hourly := hourlyFeed(t, f.days)
	s, err := New(Config{
		Index: f.idx, Days: f.days, Opts: f.opts, WindowHours: 24,
		Policy: collector.DropFrame,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	win := s.Window()
	tables := win.NewWireTables()
	const last = 40
	for _, recs := range hourly[:last+1] {
		feedHour(win, tables, recs)
	}
	s.viewed = func() { feedHour(win, tables, hourly[last+1]) }
	var got figuresJSON
	if err := json.Unmarshal([]byte(get(t, srv, "/figures?format=json")), &got); err != nil {
		t.Fatal(err)
	}
	if win.End() != last+1 {
		t.Fatalf("window ends at hour %d after the read, want %d", win.End(), last+1)
	}
	if want := summaryOf(t, refWindow(t, f, 24, hourly[:last+1])); !reflect.DeepEqual(got, want) {
		t.Fatalf("summary of %v–%v, want the folded frame's %v–%v, or its study differs", got.Start, got.End, want.Start, want.End)
	}
}

// TestWindowFoldStats: GET /window reports how reads reached the fold.
// A chronological feed polled on /figures once per hour after a 24-hour
// window has filled rebuilds once, slides on every later poll, and
// copies the fold on none.
func TestWindowFoldStats(t *testing.T) {
	f := buildFixture(t)
	s, err := New(Config{
		Index: f.idx, Days: f.days, Opts: f.opts, WindowHours: 24,
		Policy: collector.DropFrame, RenderFigures: renderFigures,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	win := s.Window()
	tables := win.NewWireTables()
	polls := 0
	for h, recs := range hourlyFeed(t, f.days) {
		feedHour(win, tables, recs)
		if h >= 24 {
			get(t, srv, "/figures")
			polls++
		}
	}
	body := get(t, srv, "/window")
	var out struct {
		Fold flows.FoldStats `json:"fold"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatal(err)
	}
	if fs := out.Fold; fs.Rebuilds != 1 || fs.Slides != uint64(polls-1) || fs.Copies != 0 {
		t.Fatalf("%d hourly polls: fold %+v, want 1 rebuild, %d slides and no copy", polls, fs, polls-1)
	}
	var raw struct {
		Fold map[string]uint64 `json:"fold"`
	}
	if err := json.Unmarshal([]byte(body), &raw); err != nil {
		t.Fatal(err)
	}
	if n, ok := raw.Fold["compactions"]; !ok || n > out.Fold.Slides {
		t.Fatalf("fold %v: want fold.compactions, at most one per slide", raw.Fold)
	}
}

// certVisible is the ground-truth index's cert flag: whether a certless
// IPv4-wide scan can pull a default certificate from a server of class c.
func certVisible(c *world.ServerClass) bool {
	return slices.ContainsFunc(c.Endpoints, func(ep world.EndpointSpec) bool {
		return ep.Protocol.TLSCapable() && ep.Policy == iotserver.PolicyDefaultCert
	})
}
