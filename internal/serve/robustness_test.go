package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"iotmap/internal/collector"
	"iotmap/internal/faultwire"
)

// attachFileHTTP attaches a recorded file feed over the API.
func attachFileHTTP(t testing.TB, srv *httptest.Server, path, name, vantage string) {
	t.Helper()
	body := `{"path":` + jsonStr(path) + `,"name":` + jsonStr(name) + `,"vantage":` + jsonStr(vantage) + `}`
	resp, err := srv.Client().Post(srv.URL+"/streams/file", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("attach %s: %d", path, resp.StatusCode)
	}
}

func postCheckpoint(t testing.TB, srv *httptest.Server) {
	t.Helper()
	resp, err := srv.Client().Post(srv.URL+"/checkpoint", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("checkpoint: %d", resp.StatusCode)
	}
}

// TestCheckpointCRCFallback: a torn/corrupt newest checkpoint must not
// take the daemon down — restore falls back to the ".prev" rotation
// keep with a warning and a counter bump, and the restored figures
// match the state both checkpoints captured.
func TestCheckpointCRCFallback(t *testing.T) {
	f := buildFixture(t)
	dir := t.TempDir()
	feed := filepath.Join(dir, "feed.nf")
	if err := os.WriteFile(feed, f.rec, 0o644); err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(dir, "ckpt")

	s1 := f.service(t, ckpt)
	srv := httptest.NewServer(s1.Handler())
	attachFileHTTP(t, srv, feed, "feed", "isp-a")
	waitSettled(t, srv)
	figs := get(t, srv, "/figures")
	// Two checkpoints of the same settled state: the rotation keep and
	// the newest file are equivalent restore points.
	postCheckpoint(t, srv)
	postCheckpoint(t, srv)
	srv.Close()
	if _, err := os.Stat(ckpt + prevSuffix); err != nil {
		t.Fatalf("rotation keep missing: %v", err)
	}

	// Corrupt the newest checkpoint's tail — a torn write.
	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(ckpt, data, 0o644); err != nil {
		t.Fatal(err)
	}

	var warned bool
	s2, err := New(Config{
		Index: f.idx, Days: f.days, Opts: f.opts,
		Policy: collector.DropFrame, CheckpointPath: ckpt,
		RenderFigures: renderFigures,
		Logf: func(format string, args ...any) {
			if strings.Contains(format, "WARNING") {
				warned = true
			}
		},
	})
	if err != nil {
		t.Fatalf("restore with intact .prev failed: %v", err)
	}
	if !s2.Restored {
		t.Fatal("service did not restore")
	}
	if s2.RestoredFrom != ckpt+prevSuffix {
		t.Fatalf("RestoredFrom = %q, want %q", s2.RestoredFrom, ckpt+prevSuffix)
	}
	if s2.CheckpointFallbacks != 1 {
		t.Fatalf("CheckpointFallbacks = %d, want 1", s2.CheckpointFallbacks)
	}
	if !warned {
		t.Fatal("fallback restore logged no warning")
	}
	srv2 := httptest.NewServer(s2.Handler())
	defer srv2.Close()
	if got := get(t, srv2, "/figures"); got != figs {
		t.Fatalf("fallback figures differ:\n--- before\n%s\n--- after\n%s", figs, got)
	}
	var stats struct {
		Fallbacks uint64 `json:"checkpointFallbacks"`
		From      string `json:"restoredFrom"`
	}
	if err := json.Unmarshal([]byte(get(t, srv2, "/stats")), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Fallbacks != 1 || stats.From != ckpt+prevSuffix {
		t.Fatalf("stats fallback fields wrong: %+v", stats)
	}

	// A newest file that vanished mid-rotation falls back the same way.
	if err := os.Remove(ckpt); err != nil {
		t.Fatal(err)
	}
	s3 := f.service(t, ckpt)
	if !s3.Restored || s3.CheckpointFallbacks != 1 || s3.RestoredFrom != ckpt+prevSuffix {
		t.Fatalf("mid-rotation fallback wrong: restored=%v fallbacks=%d from=%q",
			s3.Restored, s3.CheckpointFallbacks, s3.RestoredFrom)
	}

	// Both copies unreadable is a hard error, not a silent fresh start.
	if err := os.WriteFile(ckpt, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ckpt+prevSuffix, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{
		Index: f.idx, Days: f.days, Opts: f.opts,
		Policy: collector.DropFrame, CheckpointPath: ckpt,
		RenderFigures: renderFigures,
	}); err == nil {
		t.Fatal("restore with both copies corrupt did not fail")
	}
}

// TestCheckpointOldWindowFormat: an IWIN v1 window body — what every
// checkpoint written before the row-log window holds — is refused with
// an error that names the version, and like any bad newest checkpoint it
// falls back to the ".prev" keep when that one is readable.
func TestCheckpointOldWindowFormat(t *testing.T) {
	f := buildFixture(t)
	dir := t.TempDir()
	feed := filepath.Join(dir, "feed.nf")
	if err := os.WriteFile(feed, f.rec, 0o644); err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(dir, "ckpt")
	s1 := f.service(t, ckpt)
	srv := httptest.NewServer(s1.Handler())
	attachFileHTTP(t, srv, feed, "feed", "isp-a")
	waitSettled(t, srv)
	figs := get(t, srv, "/figures")
	postCheckpoint(t, srv)
	srv.Close()

	// A well-formed IOTCKPT2 container (CRC and all) around a v1 body.
	var v1 bytes.Buffer
	v1.WriteString(checkpointMagic)
	body := binary.LittleEndian.AppendUint16([]byte("IWIN"), 1)
	body = append(body, make([]byte, 64)...)
	if err := putSection(func(b []byte) error { _, err := v1.Write(b); return err }, sectionWindow, body); err != nil {
		t.Fatal(err)
	}

	old := filepath.Join(dir, "old")
	if err := os.WriteFile(old, v1.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := New(Config{
		Index: f.idx, Days: f.days, Opts: f.opts,
		Policy: collector.DropFrame, CheckpointPath: old,
		RenderFigures: renderFigures,
	})
	if err == nil || !strings.Contains(err.Error(), "IWIN version 1") {
		t.Fatalf("v1 window body without a keep: got error %v, want one naming IWIN version 1", err)
	}

	if err := os.Rename(ckpt, ckpt+prevSuffix); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ckpt, v1.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	var warning string
	s2, err := New(Config{
		Index: f.idx, Days: f.days, Opts: f.opts,
		Policy: collector.DropFrame, CheckpointPath: ckpt,
		RenderFigures: renderFigures,
		Logf: func(format string, args ...any) {
			if strings.Contains(format, "WARNING") {
				warning = fmt.Sprintf(format, args...)
			}
		},
	})
	if err != nil {
		t.Fatalf("v1 window body with an intact .prev: %v", err)
	}
	if !s2.Restored || s2.CheckpointFallbacks != 1 || s2.RestoredFrom != ckpt+prevSuffix {
		t.Fatalf("fallback wrong: restored=%v fallbacks=%d from=%q", s2.Restored, s2.CheckpointFallbacks, s2.RestoredFrom)
	}
	if !strings.Contains(warning, "IWIN version 1") {
		t.Fatalf("fallback warning %q does not name the window format version", warning)
	}
	srv2 := httptest.NewServer(s2.Handler())
	defer srv2.Close()
	if got := get(t, srv2, "/figures"); got != figs {
		t.Fatalf("fallback figures differ:\n--- before\n%s\n--- after\n%s", figs, got)
	}
}

// TestWindowVantageDegraded: GET /window groups settled feeds by
// vantage and flags a vantage whose feeds missed study hours a sibling
// vantage covered — the daemon-side twin of the federation coverage
// report's degraded annotation.
func TestWindowVantageDegraded(t *testing.T) {
	f := buildFixture(t)
	// isp-b's copy of the feed dies cleanly at hour 96 — the exporter
	// sat inside the blast radius.
	sc := &faultwire.Scenario{Seed: 1, Start: f.days[0], Rules: []faultwire.Rule{
		{Stream: -1, FromHour: 96, Faults: faultwire.Faults{Kill: true, KillClean: true}},
	}}
	dead, err := io.ReadAll(sc.Wrap(0, "isp-b", bytes.NewReader(f.rec)))
	if err != nil {
		t.Fatal(err)
	}
	if len(dead) == 0 || len(dead) >= len(f.rec) {
		t.Fatalf("feed death produced %d of %d bytes", len(dead), len(f.rec))
	}

	dir := t.TempDir()
	healthy := filepath.Join(dir, "healthy.nf")
	truncated := filepath.Join(dir, "dead.nf")
	if err := os.WriteFile(healthy, f.rec, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(truncated, dead, 0o644); err != nil {
		t.Fatal(err)
	}

	s := f.service(t, "")
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	attachFileHTTP(t, srv, healthy, "feed-a", "isp-a")
	attachFileHTTP(t, srv, truncated, "feed-b", "isp-b")
	waitSettled(t, srv)

	var win struct {
		Vantages []vantageWindow `json:"vantages"`
	}
	if err := json.Unmarshal([]byte(get(t, srv, "/window")), &win); err != nil {
		t.Fatal(err)
	}
	if len(win.Vantages) != 2 {
		t.Fatalf("vantages = %+v, want 2 rows", win.Vantages)
	}
	rows := map[string]vantageWindow{}
	for _, v := range win.Vantages {
		rows[v.Vantage] = v
	}
	a, b := rows["isp-a"], rows["isp-b"]
	if a.Vantage == "" || b.Vantage == "" {
		t.Fatalf("vantage rows missing: %+v", win.Vantages)
	}
	if a.Degraded {
		t.Fatalf("healthy vantage flagged degraded: %+v", a)
	}
	if !b.Degraded {
		t.Fatalf("vantage that lost its feed not flagged degraded: %+v", b)
	}
	if b.HoursCovered >= a.HoursCovered {
		t.Fatalf("dead feed covers %d hours, healthy %d", b.HoursCovered, a.HoursCovered)
	}
}

// TestAttachDialReconnects: a dial feed whose transport dies with an
// error redials through collector.IngestReconnecting and finishes the
// stream — the daemon survives a flapping exporter without operator
// action.
func TestAttachDialReconnects(t *testing.T) {
	f := buildFixture(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		// First connection: reset with no data (a dying exporter).
		c1, err := ln.Accept()
		if err != nil {
			return
		}
		if tc, ok := c1.(*net.TCPConn); ok {
			tc.SetLinger(0) //nolint:errcheck
		}
		c1.Close()
		// Second connection: the full recording.
		c2, err := ln.Accept()
		if err != nil {
			return
		}
		c2.Write(f.rec) //nolint:errcheck
		c2.Close()
	}()

	s := f.service(t, "")
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	if _, err := s.AttachDial(ln.Addr().String(), "flappy", "isp-a"); err != nil {
		t.Fatal(err)
	}
	waitSettled(t, srv)

	var stats struct {
		Wire collector.Stats `json:"wire"`
	}
	if err := json.Unmarshal([]byte(get(t, srv, "/stats")), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Wire.Reconnects == 0 {
		t.Fatalf("no reconnects counted: %+v", stats.Wire)
	}
	if stats.Wire.BatchRecords == 0 {
		t.Fatalf("reconnected feed ingested nothing: %+v", stats.Wire)
	}
}

// TestAttachResponseRace: POST /streams/file and /streams/dial answer
// with the feed as registered, not with the live registry entry the
// feed's goroutine settles. Both feeds here end at once — an empty
// file, an exporter that hangs up on accept — so settle runs beside
// the response's encoding on every iteration; run it under -race.
func TestAttachResponseRace(t *testing.T) {
	f := buildFixture(t)
	empty := filepath.Join(t.TempDir(), "empty.nf")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			c.Close()
		}
	}()

	s := f.service(t, "")
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	for i := 0; i < 20; i++ {
		for path, body := range map[string]string{
			"/streams/file": `{"path":` + jsonStr(empty) + `}`,
			"/streams/dial": `{"addr":` + jsonStr(ln.Addr().String()) + `}`,
		} {
			resp, err := srv.Client().Post(srv.URL+path, "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			var fd Feed
			err = json.NewDecoder(resp.Body).Decode(&fd)
			resp.Body.Close()
			if err != nil || resp.StatusCode != 200 || fd.ID == 0 {
				t.Fatalf("POST %s: status %d, feed %+v, err %v", path, resp.StatusCode, fd, err)
			}
		}
	}
	waitSettled(t, srv)
}

// TestCheckpointRacesRestoredFeed is the crash-recovery runbook with
// periodic checkpoints: a service restored from a checkpoint taken after
// a feed's first half keeps checkpointing while the feed's second half
// re-attaches under the same name. A checkpoint may still be encoding
// the restored dictionary state when the resumed stream claims it, so
// the stream must never append to those tables; run it under -race. The
// resumed figures are still the uninterrupted run's.
func TestCheckpointRacesRestoredFeed(t *testing.T) {
	f := buildFixture(t)
	dir := t.TempDir()
	partA, partB := splitAtFlush(t, f.rec)
	full, pa, pb := filepath.Join(dir, "full.nf"), filepath.Join(dir, "a.nf"), filepath.Join(dir, "b.nf")
	for path, data := range map[string][]byte{full: f.rec, pa: partA, pb: partB} {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	ckpt := filepath.Join(dir, "ckpt")
	// ingest attaches a file under one source name, waits for it to
	// settle, and returns the service's figures.
	ingest := func(s *Service, path string) string {
		srv := httptest.NewServer(s.Handler())
		defer srv.Close()
		if _, err := s.AttachFile(path, "feed", ""); err != nil {
			t.Fatal(err)
		}
		waitSettled(t, srv)
		return renderFigures(s.col.Finalize())
	}
	ref := ingest(f.service(t, ""), full)

	first := f.service(t, ckpt)
	ingest(first, pa)
	if _, err := first.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	s := f.service(t, ckpt)
	if !s.Restored {
		t.Fatal("service did not restore the checkpoint")
	}
	stop, done := make(chan struct{}), make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				done <- nil
				return
			default:
			}
			if _, err := s.Checkpoint(); err != nil {
				done <- err
				return
			}
		}
	}()
	resumed := ingest(s, pb)
	close(stop)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if resumed != ref {
		t.Fatalf("resumed figures differ from the uninterrupted run:\n--- uninterrupted\n%s\n--- resumed\n%s", ref, resumed)
	}
}

// TestFiguresRaceFeedAndCheckpoint: GET /figures, as text and as JSON,
// runs beside a chronological feed that advances a 24-hour window hour
// by hour and beside POST /checkpoint; run it under -race. Every hour
// waits for a read to finish, so reads land on every frame. After the
// feed, /figures and the JSON summary equal a fresh window fed the same
// flushes, and so does a service restored from a final checkpoint.
func TestFiguresRaceFeedAndCheckpoint(t *testing.T) {
	f := buildFixture(t)
	hourly := hourlyFeed(t, f.days)
	cfg := Config{
		Index: f.idx, Days: f.days, Opts: f.opts, WindowHours: 24,
		Policy: collector.DropFrame, RenderFigures: renderFigures,
		CheckpointPath: filepath.Join(t.TempDir(), "ckpt"),
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	var reads atomic.Uint64
	stop := make(chan struct{})
	errs := make(chan error, 3)
	for _, req := range []struct{ method, path string }{
		{"GET", "/figures"}, {"GET", "/figures?format=json"}, {"POST", "/checkpoint"},
	} {
		go func() {
			for {
				select {
				case <-stop:
					errs <- nil
					return
				default:
				}
				hr, err := http.NewRequest(req.method, srv.URL+req.path, nil)
				if err != nil {
					errs <- err
					return
				}
				resp, err := srv.Client().Do(hr)
				if err == nil {
					_, err = io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if err == nil && resp.StatusCode != http.StatusOK {
						err = fmt.Errorf("%s %s: %d", req.method, req.path, resp.StatusCode)
					}
				}
				if err != nil {
					errs <- err
					return
				}
				if req.method == "GET" {
					reads.Add(1)
				}
			}
		}()
	}
	win := s.Window()
	tables := win.NewWireTables()
	for _, recs := range hourly {
		feedHour(win, tables, recs)
		for n := reads.Load(); reads.Load() == n; {
			runtime.Gosched()
		}
	}
	close(stop)
	for i := 0; i < 3; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}

	ref := refWindow(t, f, 24, hourly)
	want := renderFigures(ref.Merged())
	if got := get(t, srv, "/figures"); got != want {
		t.Fatalf("figures after the feed differ from a fresh window:\n--- fresh\n%s\n--- served\n%s", want, got)
	}
	var got figuresJSON
	if err := json.Unmarshal([]byte(get(t, srv, "/figures?format=json")), &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, summaryOf(t, ref)) {
		t.Fatal("JSON summary after the feed differs from a fresh window's")
	}
	postCheckpoint(t, srv)
	restored, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := renderFigures(restored.Window().Merged()); !restored.Restored || got != want {
		t.Fatalf("restored (%v) figures differ from a fresh window:\n%s", restored.Restored, got)
	}
}
