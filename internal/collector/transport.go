// Transports: every way a feed reaches the collector — readers and
// pipes, recorded files, raw IPFIX, redialing dials, TCP and UDP. Each
// creates its stream, wraps it with tapAndWatch and hands it to a
// decode loop.

package collector

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"iotmap/internal/netflow"
	"iotmap/internal/simrand"
)

// IngestNamedStream consumes one framed NetFlow stream (the
// isp.SimulateLinesToWire format) until EOF, labelled name in the
// per-stream Stats breakdown (a file path, a peer address — whatever
// identifies the feed to an operator). An empty name falls back to the
// accept-order "stream-N" label. It may be called from N goroutines,
// one per stream; each call owns its own shard partial. Under the
// default Abort policy, framing and decode errors are fatal for the
// stream — a corrupt feed fails loudly rather than aggregating a
// partial week silently (everything ingested up to the error stays
// counted); DropFrame and QuarantineStream degrade gracefully instead.
func (c *Collector) IngestNamedStream(name string, r io.Reader) error {
	return c.ingestIndexed(c.reserveStreams(1), name, r)
}

// ingestIndexed runs one stream's full ingest under a pre-reserved
// stream index.
func (c *Collector) ingestIndexed(idx int, name string, raw io.Reader) error {
	st := c.newStreamAt(idx, name)
	defer c.finish(st)
	r, stop := c.tapAndWatch(st, raw)
	defer stop()
	return c.ingestFrames(st, raw, netflow.NewFrameReader(r))
}

// IngestFiles replays the recorded streams concurrently, one stream per
// file in slice order, and returns the first error. Each file is
// memory-mapped (on linux; read whole elsewhere) and frames decode
// zero-copy from the mapped bytes. When a Tap or stall watchdog is
// configured the files take the streaming path instead — those seams
// wrap io.Readers.
func (c *Collector) IngestFiles(paths []string) error {
	base := c.reserveStreams(len(paths))
	errs := make([]error, len(paths))
	var wg sync.WaitGroup
	for i, p := range paths {
		wg.Add(1)
		go func(i int, p string) {
			defer wg.Done()
			errs[i] = c.ingestFileAt(base+i, p)
		}(i, p)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("collector: file %s: %w", paths[i], err)
		}
	}
	return nil
}

// ingestFileAt replays one file under a pre-reserved stream index.
func (c *Collector) ingestFileAt(idx int, path string) error {
	if c.cfg.Tap != nil || c.cfg.StallTimeout > 0 {
		f, err := os.Open(path)
		if err != nil {
			c.finish(c.newStreamAt(idx, path)) // keep the slot accounted
			return err
		}
		defer f.Close()
		return c.ingestIndexed(idx, path, f)
	}
	st := c.newStreamAt(idx, path)
	defer c.finish(st)
	data, done, err := mapFile(path)
	if err != nil {
		return err
	}
	defer done()
	return c.ingestFrames(st, nil, netflow.NewBytesFrameReader(data))
}

// IngestIPFIX consumes one stream of raw, self-delimiting NetFlow
// v9-in-IPFIX-framing messages — concatenated IPFIX messages as
// exporters write them to disk or TCP, no frame envelope — until EOF.
// Each message's 16-bit length field delimits it, so an undecodable
// message body is dropped in place under DropFrame; a header that does
// not parse loses delimitation and ends the stream per policy. Flow
// rows pend until EOF (IPFIX has no flush markers), then classify as
// one batch; counters scale by the configured fallback sampling
// rate, since IPFIX messages advertise none.
func (c *Collector) IngestIPFIX(name string, raw io.Reader) error {
	st := c.newStream(name)
	defer c.finish(st)
	r, stop := c.tapAndWatch(st, raw)
	defer stop()
	var msg []byte
	for {
		var err error
		if msg, err = nextIPFIX(r, msg); err != nil {
			if err == io.EOF {
				st.flush()
				return nil
			}
			// The message is lost either way.
			return c.endStream(st, raw, err, true)
		}
		st.stats.Frames++
		if derr := st.templated(msg); derr != nil {
			// The length field already delimited the message, so the
			// stream stays aligned: drop just this message.
			if cont, err := c.payloadFault(st, raw, derr); !cont {
				return err
			}
		}
		st.publish()
	}
}

// nextIPFIX reads one IPFIX message into buf's storage. io.EOF is a
// clean end between messages; any other error cost the message, and
// after a header that does not parse there is no next-message boundary
// to recover to.
func nextIPFIX(r io.Reader, buf []byte) ([]byte, error) {
	buf = append(buf[:0], 0, 0, 0, 0)
	if _, err := io.ReadFull(r, buf); err != nil {
		return buf, err
	}
	ver := binary.BigEndian.Uint16(buf)
	msgLen := int(binary.BigEndian.Uint16(buf[2:]))
	if ver != 10 || msgLen < 16 {
		return buf, fmt.Errorf("%w: IPFIX header version %d length %d", netflow.ErrBadPayload, ver, msgLen)
	}
	buf = append(buf, make([]byte, msgLen-4)...)
	if _, err := io.ReadFull(r, buf[4:]); err != nil {
		return buf, fmt.Errorf("collector: IPFIX message truncated: %w", err)
	}
	return buf, nil
}

// IngestPipes opens `streams` in-process pipe streams on c, for
// exporters that write rather than hand over readers (the wire-mode
// TrafficStudy, benchmarks). Write into the returned writers — they
// block under collector backpressure — then call wait, which closes
// them (EOF for the ingesters) and returns the first stream error.
// A stream that fails mid-feed rejects further writes with its error
// instead of deadlocking the writer.
func (c *Collector) IngestPipes(streams int) (writers []io.Writer, wait func() error) {
	writers = make([]io.Writer, streams)
	pipeWs := make([]*io.PipeWriter, streams)
	errs := make([]error, streams)
	base := c.reserveStreams(streams)
	var wg sync.WaitGroup
	for i := 0; i < streams; i++ {
		pr, pw := io.Pipe()
		writers[i], pipeWs[i] = pw, pw
		wg.Add(1)
		go func(i int, pr *io.PipeReader) {
			defer wg.Done()
			if err := c.ingestIndexed(base+i, fmt.Sprintf("pipe-%d", i), pr); err != nil {
				errs[i] = err
				pr.CloseWithError(err)
			}
		}(i, pr)
	}
	wait = func() error {
		for _, pw := range pipeWs {
			pw.Close()
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				return fmt.Errorf("collector: stream %d: %w", i, err)
			}
		}
		return nil
	}
	return writers, wait
}

// ReconnectConfig tunes IngestReconnecting's redial behavior.
type ReconnectConfig struct {
	// MaxAttempts caps redials after the initial connect; <= 0 means 5.
	MaxAttempts int
	// BaseDelay is the first backoff step (default 100ms); each further
	// attempt doubles it, capped at MaxDelay (default 30s). Every delay
	// is jittered by a seeded factor in [0.5, 1.5) so a fleet of
	// reconnecting collectors does not thunder back in lockstep —
	// seeded, so a replayed study reconnects identically.
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// Seed drives the jitter draws.
	Seed int64
	// Sleep replaces time.Sleep in tests; nil means time.Sleep.
	Sleep func(time.Duration)
}

// IngestReconnecting ingests one stream whose transport can die and
// come back: dial opens (or reopens) the feed, and any mid-stream
// transport error triggers a redial with capped exponential backoff +
// jitter instead of ending the stream. Successful redials count in
// Stats.Reconnects. A clean EOF ends the stream normally; exhausting
// MaxAttempts surfaces the last error to the usual policy handling.
// Frame desync across a reconnect boundary is healed by the DropFrame
// resync path, so pair this with a non-Abort policy for long-lived
// feeds.
func (c *Collector) IngestReconnecting(name string, dial func(attempt int) (io.Reader, error), rc ReconnectConfig) error {
	if rc.MaxAttempts <= 0 {
		rc.MaxAttempts = 5
	}
	if rc.BaseDelay <= 0 {
		rc.BaseDelay = 100 * time.Millisecond
	}
	if rc.MaxDelay <= 0 {
		rc.MaxDelay = 30 * time.Second
	}
	if rc.Sleep == nil {
		rc.Sleep = time.Sleep
	}
	st := c.newStream(name)
	defer c.finish(st)
	rr := &reconnectReader{
		dial: dial,
		rc:   rc,
		rng:  simrand.New(simrand.SeedN(rc.Seed, "collector/reconnect", int64(st.index))),
		onReconnect: func() {
			st.stats.Reconnects++
		},
	}
	// A reconnecting feed that redials forever against a half-dead
	// exporter (connects, then never sends a frame) must degrade the
	// vantage, not hang the stream: the stall watchdog's abort target
	// is the reconnectReader itself, whose Close stops further redials
	// as well as the live transport.
	r, stop := c.tapAndWatch(st, rr)
	defer stop()
	return c.ingestFrames(st, rr, netflow.NewFrameReader(r))
}

// reconnectReader is an io.Reader over a redialable transport.
type reconnectReader struct {
	dial        func(attempt int) (io.Reader, error)
	rc          ReconnectConfig
	rng         *simrand.Source
	onReconnect func()
	cur         io.Reader
	attempt     int // dials performed
	retries     int // backoffs taken
	err         error
	closed      atomic.Bool
}

func (r *reconnectReader) Read(p []byte) (int, error) {
	for {
		if r.err != nil {
			return 0, r.err
		}
		if r.closed.Load() {
			r.err = net.ErrClosed
			return 0, r.err
		}
		if r.cur == nil {
			cur, err := r.dial(r.attempt)
			r.attempt++
			if err != nil {
				if !r.backoff(err) {
					return 0, r.err
				}
				continue
			}
			if r.attempt > 1 && r.onReconnect != nil {
				r.onReconnect()
			}
			r.cur = cur
		}
		n, err := r.cur.Read(p)
		if err == nil {
			return n, nil
		}
		if err == io.EOF {
			r.err = io.EOF
			return n, nil // deliver the tail; EOF on the next call
		}
		// Transport death: drop the connection and redial after backoff.
		if cl, ok := r.cur.(io.Closer); ok {
			cl.Close()
		}
		r.cur = nil
		if !r.backoff(err) {
			return n, nil // surface r.err on the next call
		}
		if n > 0 {
			return n, nil
		}
	}
}

// backoff sleeps the next capped-exponential jittered delay, or records
// cause as the sticky error once MaxAttempts is exhausted.
func (r *reconnectReader) backoff(cause error) bool {
	if r.retries >= r.rc.MaxAttempts {
		r.err = cause
		return false
	}
	d := r.rc.BaseDelay << r.retries
	if d > r.rc.MaxDelay || d <= 0 {
		d = r.rc.MaxDelay
	}
	jitter := 0.5 + r.rng.Float64()
	r.rc.Sleep(time.Duration(float64(d) * jitter))
	r.retries++
	return true
}

// Close stops the reader: the current transport is closed and no
// further redials happen (the stall watchdog's abort path).
func (r *reconnectReader) Close() error {
	r.closed.Store(true)
	if cl, ok := r.cur.(io.Closer); ok {
		return cl.Close()
	}
	return nil
}

// ListenTCP accepts connections from l and ingests each as one framed
// stream as it arrives. With streams > 0 it stops accepting after that
// many connections; with streams <= 0 it accepts until the listener is
// closed. Either way it returns once every in-flight stream has
// drained (first stream error wins) — closing l from another goroutine
// is the graceful-shutdown path: accepting stops, in-flight streams
// run to completion. The caller keeps ownership of l.
func (c *Collector) ListenTCP(l net.Listener, streams int) error {
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	for accepted := 0; streams <= 0 || accepted < streams; accepted++ {
		conn, err := l.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				break // graceful shutdown: drain what's in flight
			}
			wg.Wait()
			return err
		}
		wg.Add(1)
		go func(stream int, conn net.Conn) {
			defer wg.Done()
			defer conn.Close()
			if err := c.IngestNamedStream(conn.RemoteAddr().String(), conn); err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = fmt.Errorf("collector: stream %d: %w", stream, err)
				}
				mu.Unlock()
				abortReader(conn, err)
			}
		}(accepted, conn)
	}
	wg.Wait()
	return firstErr
}

// ServeUDP ingests raw NetFlow datagrams (real-router interop: no frame
// envelope, no flush markers) from pc until it is closed. The version
// field picks the codec per datagram: 5 decodes as classic v5, 9 and 10
// as templated v9/IPFIX against a per-source template cache. Each
// source address is one shard with its own reused decode scratch;
// undecodable datagrams are counted in Stats.BadPackets and dropped,
// since UDP feeds lose and corrupt packets as a matter of course. Each
// source publishes its counters per datagram, like any other stream.
// Classification happens at close (one implicit flush per source), so
// this mode buffers each source's feed — size it accordingly.
func (c *Collector) ServeUDP(pc net.PacketConn) error {
	buf := make([]byte, 65535)
	streams := map[string]*stream{}
	defer func() {
		for _, st := range streams {
			st.flush()
			c.finish(st)
		}
	}()
	for {
		n, addr, err := pc.ReadFrom(buf)
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		key := addr.String()
		st, ok := streams[key]
		if !ok {
			st = c.newStream(key)
			streams[key] = st
		}
		if st.datagram(buf[:n]) != nil {
			st.stats.BadPackets++
		}
		st.publish()
	}
}
