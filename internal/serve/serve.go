// Package serve turns the batch collector into a long-lived service:
// a shared sliding flows.Window fed by a runtime stream registry
// (attach and detach TCP dials, inbound connections, and recorded
// files while the daemon runs), an HTTP API exposing the live study
// (/figures), wire and window health (/stats, /streams, /window), and
// periodic atomic checkpoints so a crashed or restarted daemon resumes
// the trailing window without re-ingesting it.
//
// The package deliberately knows nothing about figure rendering or the
// synthetic world: the daemon frontend (cmd/iotcollect -serve) injects
// a RenderFigures closure, which keeps serve free of import cycles and
// makes the rendered text byte-comparable across restarts — the
// property the kill-resume tests pin.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"

	"iotmap/internal/collector"
	"iotmap/internal/core/flows"
)

// Config sizes the service.
type Config struct {
	// Index classifies flow endpoints (required). It must be the same
	// index (same backends, same aliases) across restarts: checkpoints
	// fingerprint it and refuse to restore against a different one.
	Index *flows.BackendIndex
	// Days anchors the study clock; Days[0] is the window epoch
	// (required).
	Days []time.Time
	// Opts configures the analysis. Opts.SamplingRate is the fallback
	// scale for header-less record streams, exactly as in
	// collector.Config; the window itself always runs at rate 1 (the
	// wire path pre-scales).
	Opts flows.Options
	// WindowHours is the trailing window span; 0 means the whole study
	// (len(Days)*24). Must be a positive multiple of 24.
	WindowHours int
	// Policy is the per-stream fault response. QuarantineStream is
	// rejected (window mode shares one sink across streams).
	Policy collector.ErrorPolicy
	// StallTimeout arms the per-stream read-stall watchdog; 0 disables.
	StallTimeout time.Duration
	// CheckpointPath, when set, is where checkpoints are written
	// (atomically: temp file + rename, previous checkpoint kept as
	// CheckpointPath+".prev") and restored from at startup. A torn or
	// corrupt newest checkpoint falls back to the ".prev" keep with a
	// logged warning and a bump of the checkpointFallbacks counter in
	// GET /stats.
	CheckpointPath string
	// CheckpointEvery is the checkpoint timer period; 0 disables the
	// timer (checkpoints still happen on shutdown and on demand).
	CheckpointEvery time.Duration
	// RenderFigures renders the study as text for GET /figures. Nil
	// falls back to the JSON summary.
	RenderFigures func(cc *flows.ContactCounter, col *flows.Collector) string
	// ReconnectSeed drives the seeded redial jitter of dial feeds
	// (AttachDial routes through collector.IngestReconnecting): with
	// the same seed a replayed deployment redials on an identical
	// schedule. Zero is a valid seed.
	ReconnectSeed int64
	// EnablePprof mounts net/http/pprof under /debug/pprof/ on the API
	// mux. Off by default: the profiling endpoints expose goroutine
	// stacks and heap contents, so they are opt-in per deployment.
	EnablePprof bool
	// Logf receives operational log lines; nil discards them.
	Logf func(format string, args ...any)
}

// Service is a running collector daemon: one shared window, a stream
// registry, and an HTTP API. Create with New, drive with Run (or mount
// Handler and ServeFeeds yourself), stop by cancelling Run's context.
type Service struct {
	cfg     Config
	win     *flows.Window
	col     *collector.Collector
	mux     *http.ServeMux
	started time.Time

	mu     sync.Mutex
	feeds  map[int64]*Feed
	nextID int64
	wg     sync.WaitGroup

	// Restored reports whether New loaded a checkpoint.
	Restored bool
	// RestoredFrom is the file the restore actually used — the
	// configured path, or its ".prev" rotation keep after a fallback.
	RestoredFrom string
	// CheckpointFallbacks counts restores that had to fall back to the
	// ".prev" keep because the newest checkpoint was torn or corrupt
	// (0 or 1 per process; surfaced in GET /stats).
	CheckpointFallbacks uint64
}

// Feed is one registry entry: an attached stream's identity and
// lifecycle state, as reported by GET /streams.
type Feed struct {
	// ID is the registry handle (DELETE /streams/{id}).
	ID int64 `json:"id"`
	// Kind is the transport: "dial", "file", or "conn" (inbound).
	Kind string `json:"kind"`
	// Target is the transport endpoint (address or path).
	Target string `json:"target"`
	// Vantage is the feed's tenant label, registry-level metadata for
	// multi-vantage deployments.
	Vantage string `json:"vantage,omitempty"`
	// Name is the stream's source label in the collector — checkpointed
	// dictionary state is keyed by it, so a resuming feed must reuse it.
	Name string `json:"name"`
	// Attached is when the feed joined the registry.
	Attached time.Time `json:"attached"`
	// Status is "running", "done", or "failed".
	Status string `json:"status"`
	// Error is the failure cause when Status is "failed".
	Error string `json:"error,omitempty"`

	stop func() // idempotent detach: unblocks the ingest goroutine
}

// New builds the service, restoring the window and dictionary state
// from Config.CheckpointPath if a checkpoint exists there.
func New(cfg Config) (*Service, error) {
	if cfg.Index == nil {
		return nil, errors.New("serve: Config.Index is required")
	}
	if len(cfg.Days) == 0 {
		return nil, errors.New("serve: Config.Days is required")
	}
	if cfg.WindowHours == 0 {
		cfg.WindowHours = len(cfg.Days) * 24
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	winOpts := cfg.Opts
	winOpts.SamplingRate = 1

	s := &Service{cfg: cfg, feeds: map[int64]*Feed{}, started: time.Now()}
	var dicts map[string]*collector.DictState
	if cfg.CheckpointPath != "" {
		win, ds, from, fellBack, err := restoreCheckpoint(cfg, winOpts)
		if err != nil {
			return nil, err
		}
		if win != nil {
			s.win, dicts = win, ds
			s.Restored = true
			s.RestoredFrom = from
			if fellBack {
				s.CheckpointFallbacks = 1
			}
			cfg.Logf("serve: restored window (end hour %d, %d dictionaries) from %s",
				win.End(), len(ds), from)
		}
	}
	if s.win == nil {
		win, err := flows.NewWindow(cfg.Index, cfg.Days[0], cfg.WindowHours, winOpts)
		if err != nil {
			return nil, err
		}
		s.win = win
	}
	col, err := collector.New(collector.Config{
		Index: cfg.Index, Days: cfg.Days, Opts: cfg.Opts,
		Policy: cfg.Policy, StallTimeout: cfg.StallTimeout,
		Window: s.win, RestoredDicts: dicts,
	})
	if err != nil {
		return nil, err
	}
	s.col = col
	s.buildMux()
	return s, nil
}

// restoreCheckpoint resolves startup state from the configured path:
// the newest checkpoint when it is intact, the ".prev" rotation keep
// when the newest is torn/corrupt (CRC or container failure) or went
// missing mid-rotation, and a nil window (fresh start) when no
// checkpoint exists at all. Both copies unreadable is a hard error —
// the operator asked for a restore and neither candidate is safe.
func restoreCheckpoint(cfg Config, winOpts flows.Options) (win *flows.Window, dicts map[string]*collector.DictState, from string, fellBack bool, err error) {
	path, prev := cfg.CheckpointPath, cfg.CheckpointPath+prevSuffix
	_, newestErr := os.Stat(path)
	_, prevErr := os.Stat(prev)
	if newestErr == nil {
		win, dicts, err = loadCheckpoint(path, cfg.Index, winOpts)
		if err == nil {
			return win, dicts, path, false, nil
		}
		if prevErr != nil {
			return nil, nil, "", false, fmt.Errorf("serve: restoring %s: %w", path, err)
		}
		cfg.Logf("serve: WARNING: checkpoint %s unreadable (%v); falling back to %s", path, err, prev)
	} else if prevErr == nil {
		// Crash between the rotation rename and the fresh-file rename:
		// the newest is gone but the keep survived.
		cfg.Logf("serve: WARNING: checkpoint %s missing; falling back to %s", path, prev)
	} else {
		return nil, nil, "", false, nil // fresh start
	}
	win, dicts, err = loadCheckpoint(prev, cfg.Index, winOpts)
	if err != nil {
		return nil, nil, "", false, fmt.Errorf("serve: restoring fallback %s: %w", prev, err)
	}
	return win, dicts, prev, true, nil
}

// Window exposes the service's sliding window (read-only use).
func (s *Service) Window() *flows.Window { return s.win }

// Collector exposes the underlying collector (stats, finalize).
func (s *Service) Collector() *collector.Collector { return s.col }

// register adds a feed under the next ID.
func (s *Service) register(f *Feed) *Feed {
	s.mu.Lock()
	s.nextID++
	f.ID = s.nextID
	f.Attached = time.Now()
	f.Status = "running"
	s.feeds[f.ID] = f
	s.mu.Unlock()
	return f
}

// settle records a feed's terminal state.
func (s *Service) settle(f *Feed, err error) {
	s.mu.Lock()
	if err != nil {
		f.Status = "failed"
		f.Error = err.Error()
	} else {
		f.Status = "done"
	}
	s.mu.Unlock()
	s.cfg.Logf("serve: feed %d (%s %s) %s", f.ID, f.Kind, f.Target, f.Status)
}

// AttachFile ingests a recorded framed stream from disk under the
// given source name (empty name defaults to the path — reuse the same
// name across restarts so checkpointed dictionary state re-attaches).
// It returns immediately; the feed runs until EOF or fault.
func (s *Service) AttachFile(path, name, vantage string) (*Feed, error) {
	if name == "" {
		name = path
	}
	fh, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	f := s.register(&Feed{Kind: "file", Target: path, Name: name, Vantage: vantage,
		stop: func() { fh.Close() }})
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer fh.Close()
		s.settle(f, s.col.IngestNamedStream(name, fh))
	}()
	return f, nil
}

// AttachDial connects out to a framed-stream exporter and ingests with
// reconnect-on-failure (collector.IngestReconnecting): transport deaths
// redial with backoff instead of ending the feed.
func (s *Service) AttachDial(addr, name, vantage string) (*Feed, error) {
	if name == "" {
		name = addr
	}
	var fmu sync.Mutex
	var cur net.Conn
	stopped := false
	f := s.register(&Feed{Kind: "dial", Target: addr, Name: name, Vantage: vantage,
		stop: func() {
			fmu.Lock()
			stopped = true
			if cur != nil {
				cur.Close()
			}
			fmu.Unlock()
		}})
	dial := func(attempt int) (io.Reader, error) {
		fmu.Lock()
		dead := stopped
		fmu.Unlock()
		if dead {
			return nil, net.ErrClosed
		}
		conn, err := net.DialTimeout("tcp", addr, 10*time.Second)
		if err != nil {
			return nil, err
		}
		fmu.Lock()
		if stopped {
			fmu.Unlock()
			conn.Close()
			return nil, net.ErrClosed
		}
		cur = conn
		fmu.Unlock()
		return conn, nil
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.settle(f, s.col.IngestReconnecting(name, dial, collector.ReconnectConfig{
			Seed: s.cfg.ReconnectSeed,
		}))
	}()
	return f, nil
}

// Detach stops a feed: its transport is closed and the ingest stream
// winds down under the configured fault policy.
func (s *Service) Detach(id int64) error {
	s.mu.Lock()
	f, ok := s.feeds[id]
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("serve: no feed %d", id)
	}
	f.stop()
	return nil
}

// feedList copies the registry in ID order. The copies are taken under
// the lock because settle rewrites a feed's status.
func (s *Service) feedList() []Feed {
	s.mu.Lock()
	feeds := make([]Feed, 0, len(s.feeds))
	for _, f := range s.feeds {
		feeds = append(feeds, *f)
	}
	s.mu.Unlock()
	sort.Slice(feeds, func(i, j int) bool { return feeds[i].ID < feeds[j].ID })
	return feeds
}

// ServeFeeds accepts inbound exporter connections on ln, one framed
// stream per connection, until ln is closed. Each connection joins the
// registry as a "conn" feed named by its remote address.
func (s *Service) ServeFeeds(ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		remote := conn.RemoteAddr().String()
		f := s.register(&Feed{Kind: "conn", Target: remote, Name: remote,
			stop: func() { conn.Close() }})
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer conn.Close()
			s.settle(f, s.col.IngestNamedStream(remote, conn))
		}()
	}
}

// Checkpoint writes the window and dictionary state atomically to
// Config.CheckpointPath and returns the byte size written.
func (s *Service) Checkpoint() (int64, error) {
	if s.cfg.CheckpointPath == "" {
		return 0, errors.New("serve: no checkpoint path configured")
	}
	n, err := writeCheckpoint(s.cfg.CheckpointPath, s.win, s.col.DictStates())
	if err == nil {
		s.cfg.Logf("serve: checkpoint %s (%d bytes)", s.cfg.CheckpointPath, n)
	}
	return n, err
}

// Run drives the service: HTTP API on httpLn, optional inbound feeds
// on feedLn (nil disables), checkpoints on the configured timer. When
// ctx is cancelled Run stops accepting, detaches every feed, waits for
// in-flight streams to drain, writes a final checkpoint, and returns.
func (s *Service) Run(ctx context.Context, httpLn net.Listener, feedLn net.Listener) error {
	srv := &http.Server{Handler: s.mux}
	httpErr := make(chan error, 1)
	go func() { httpErr <- srv.Serve(httpLn) }()
	if feedLn != nil {
		go s.ServeFeeds(feedLn)
	}
	var tick <-chan time.Time
	if s.cfg.CheckpointEvery > 0 && s.cfg.CheckpointPath != "" {
		t := time.NewTicker(s.cfg.CheckpointEvery)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case <-tick:
			if _, err := s.Checkpoint(); err != nil {
				s.cfg.Logf("serve: checkpoint failed: %v", err)
			}
		case err := <-httpErr:
			return err
		case <-ctx.Done():
			if feedLn != nil {
				feedLn.Close()
			}
			for _, f := range s.feedList() {
				f.stop()
			}
			s.wg.Wait()
			var err error
			if s.cfg.CheckpointPath != "" {
				_, err = s.Checkpoint()
			}
			sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			srv.Shutdown(sctx) //nolint:errcheck // best-effort drain
			return err
		}
	}
}

// Handler returns the HTTP API (for tests and custom servers).
func (s *Service) Handler() http.Handler { return s.mux }

func (s *Service) buildMux() {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /streams", s.handleStreams)
	mux.HandleFunc("GET /window", s.handleWindow)
	mux.HandleFunc("GET /figures", s.handleFigures)
	mux.HandleFunc("POST /checkpoint", s.handleCheckpoint)
	mux.HandleFunc("POST /streams/file", s.handleAttachFile)
	mux.HandleFunc("POST /streams/dial", s.handleAttachDial)
	mux.HandleFunc("DELETE /streams/{id}", s.handleDetach)
	if s.cfg.EnablePprof {
		// net/http/pprof registers on DefaultServeMux as a side effect
		// of its import; mount its handlers here explicitly so they are
		// only reachable when the deployment asked for them.
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	s.mux = mux
}

// handleHealthz is the liveness probe: a cheap 200 that touches the
// window's atomics but takes no locks, so a stalled fold or a wedged
// stream cannot make the probe itself hang.
func (s *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string]any{
		"status":  "ok",
		"started": s.started,
		"uptime":  time.Since(s.started).String(),
		"endHour": s.win.End(),
	})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client went away
}

func (s *Service) handleStats(w http.ResponseWriter, r *http.Request) {
	start, end := s.win.Span()
	writeJSON(w, map[string]any{
		"started":             s.started,
		"restored":            s.Restored,
		"restoredFrom":        s.RestoredFrom,
		"checkpointFallbacks": s.CheckpointFallbacks,
		"windowStart":         start,
		"windowEnd":           end,
		"window":              s.win.Stats(),
		"wire":                s.col.Stats(),
	})
}

func (s *Service) handleStreams(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string]any{
		"feeds":   s.feedList(),
		"streams": s.col.StreamStats(),
	})
}

func (s *Service) handleWindow(w http.ResponseWriter, r *http.Request) {
	start, end := s.win.Span()
	writeJSON(w, map[string]any{
		"epoch":    s.win.Epoch(),
		"hours":    s.win.Hours(),
		"start":    start,
		"end":      end,
		"stats":    s.win.Stats(),
		"buckets":  s.win.BucketStats(),
		"vantages": s.vantageCoverage(),
	})
}

// vantageWindow is one vantage's feed-coverage row in GET /window.
type vantageWindow struct {
	Vantage      string `json:"vantage"`
	Streams      int    `json:"streams"`
	HoursCovered int    `json:"hoursCovered"`
	HoursTotal   int    `json:"hoursTotal"`
	// Degraded flags a vantage whose settled feeds missed study hours
	// that some other vantage's feeds covered — the same bitset
	// algebra flows.Federation.Coverage() runs at batch scale, here
	// over the collector's per-stream liveness bitsets.
	Degraded bool `json:"degraded"`
}

// vantageCoverage groups settled streams by their registry vantage
// label and runs the cross-vantage hour-coverage comparison: a feed
// that died mid-week leaves its vantage short of hours its siblings
// covered, which is exactly what "degraded" means federation-wide.
// Feeds still running (Streams == 0) have no settled liveness bitset
// yet and are counted once they finish.
func (s *Service) vantageCoverage() []vantageWindow {
	vantageOf := map[string]string{}
	for _, f := range s.feedList() {
		vantageOf[f.Name] = f.Vantage
	}
	type agg struct {
		bits    []uint64
		streams int
		total   int
	}
	perVantage := map[string]*agg{}
	var union []uint64
	or := func(dst *[]uint64, bits []uint64) {
		for len(*dst) < len(bits) {
			*dst = append(*dst, 0)
		}
		for i, w := range bits {
			(*dst)[i] |= w
		}
	}
	for _, ss := range s.col.StreamStats() {
		if ss.Streams == 0 {
			continue
		}
		v := vantageOf[ss.Source]
		if v == "" {
			v = ss.Vantage
		}
		a := perVantage[v]
		if a == nil {
			a = &agg{}
			perVantage[v] = a
		}
		a.streams++
		if ss.HoursTotal > a.total {
			a.total = ss.HoursTotal
		}
		or(&a.bits, ss.HourBits)
		or(&union, ss.HourBits)
	}
	names := make([]string, 0, len(perVantage))
	for v := range perVantage {
		names = append(names, v)
	}
	sort.Strings(names)
	out := make([]vantageWindow, 0, len(names))
	for _, v := range names {
		a := perVantage[v]
		covered, missing := 0, false
		for i, w := range union {
			var own uint64
			if i < len(a.bits) {
				own = a.bits[i]
			}
			covered += bits.OnesCount64(own)
			if w&^own != 0 {
				missing = true
			}
		}
		out = append(out, vantageWindow{
			Vantage: v, Streams: a.streams,
			HoursCovered: covered, HoursTotal: a.total,
			Degraded: missing,
		})
	}
	return out
}

// figuresJSON is the machine-readable study summary for
// GET /figures?format=json.
type figuresJSON struct {
	Start        time.Time          `json:"start"`
	End          time.Time          `json:"end"`
	Hours        int                `json:"hours"`
	ScannerCurve []flows.CurvePoint `json:"scannerCurve"`
	Aliases      []aliasJSON        `json:"aliases"`
}

// aliasJSON is one backend provider's summary row.
type aliasJSON struct {
	Alias         string  `json:"alias"`
	DownstreamGB  float64 `json:"downstreamGB"`
	UpstreamGB    float64 `json:"upstreamGB"`
	VisibilityV4  float64 `json:"visibilityV4Pct"`
	VisibilityV6  float64 `json:"visibilityV6Pct"`
	ActiveLineSum float64 `json:"activeLineSum"`
}

func (s *Service) handleFigures(w http.ResponseWriter, r *http.Request) {
	cc, col := s.col.Finalize()
	if r.URL.Query().Get("format") != "json" && s.cfg.RenderFigures != nil {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, s.cfg.RenderFigures(cc, col))
		return
	}
	study := col.Study()
	start, end := s.win.Span()
	out := figuresJSON{
		Start: start, End: end, Hours: study.Hours(),
		ScannerCurve: cc.Curve([]int{10, 50, 100, 500, 1000}),
	}
	for _, alias := range study.Aliases() {
		v4, v6 := study.Visibility(alias)
		out.Aliases = append(out.Aliases, aliasJSON{
			Alias:         alias,
			DownstreamGB:  study.Downstream(alias).Total() / 1e9,
			UpstreamGB:    study.Upstream(alias).Total() / 1e9,
			VisibilityV4:  v4,
			VisibilityV6:  v6,
			ActiveLineSum: study.ActiveLines(alias).Total(),
		})
	}
	writeJSON(w, out)
}

func (s *Service) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	n, err := s.Checkpoint()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, map[string]any{"path": s.cfg.CheckpointPath, "bytes": n})
}

// attachReq is the POST /streams/{file,dial} request body.
type attachReq struct {
	Path    string `json:"path"`
	Addr    string `json:"addr"`
	Name    string `json:"name"`
	Vantage string `json:"vantage"`
}

func decodeAttach(w http.ResponseWriter, r *http.Request) (attachReq, bool) {
	var req attachReq
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
		return req, false
	}
	return req, true
}

func (s *Service) handleAttachFile(w http.ResponseWriter, r *http.Request) {
	req, ok := decodeAttach(w, r)
	if !ok {
		return
	}
	if req.Path == "" {
		http.Error(w, `"path" is required`, http.StatusBadRequest)
		return
	}
	f, err := s.AttachFile(req.Path, req.Name, req.Vantage)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	writeJSON(w, f)
}

func (s *Service) handleAttachDial(w http.ResponseWriter, r *http.Request) {
	req, ok := decodeAttach(w, r)
	if !ok {
		return
	}
	if req.Addr == "" {
		http.Error(w, `"addr" is required`, http.StatusBadRequest)
		return
	}
	f, err := s.AttachDial(req.Addr, req.Name, req.Vantage)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	writeJSON(w, f)
}

func (s *Service) handleDetach(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil {
		http.Error(w, "bad feed id", http.StatusBadRequest)
		return
	}
	if err := s.Detach(id); err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	writeJSON(w, map[string]any{"detached": id})
}
