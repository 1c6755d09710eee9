// Healing policy: what a fault costs a stream under Config.Policy,
// the stall watchdog, and the abort/drain helpers that keep an
// exporter behind a dead stream from blocking.

package collector

import (
	"errors"
	"io"
	"sync/atomic"
	"time"

	"iotmap/internal/core/flows"
)

// errStallTimeout marks a stream aborted by the read-stall watchdog.
var errStallTimeout = errors.New("collector: read stall timeout")

// payloadFault applies the fault policy to an intact-envelope payload
// error. The bool reports whether the decode loop should continue
// (DropFrame: the reader is still frame-aligned, drop just this frame);
// false means the stream ends with the returned error (nil under
// quarantine).
func (c *Collector) payloadFault(st *stream, raw io.Reader, derr error) (bool, error) {
	switch c.cfg.Policy {
	case DropFrame:
		st.stats.DroppedFrames++
		return true, nil
	case QuarantineStream:
		return false, c.quarantine(st, raw)
	default:
		return false, derr
	}
}

// endStream applies the fault policy to an error that ends a stream's
// decode loop: a dead transport (disconnect, stall abort), a tail cut
// mid-frame, a header that lost delimitation, a failed resync. A stall
// the watchdog caused is counted first. Abort returns err and
// QuarantineStream discards the stream. DropFrame ends the stream early
// with its contribution intact — counting the frame the error cost in
// DroppedFrames when dropped is set — and drains raw so a still-live
// exporter behind a pipe is not deadlocked.
func (c *Collector) endStream(st *stream, raw io.Reader, err error, dropped bool) error {
	if st.stalled.Load() {
		st.stats.StallTimeouts++
	}
	switch c.cfg.Policy {
	case QuarantineStream:
		return c.quarantine(st, raw)
	case DropFrame:
		if dropped {
			st.stats.DroppedFrames++
		}
		st.flush()
		st.join()
		st.publish() // the drain can last as long as the exporter
		drainReader(raw)
		return nil
	default:
		st.join()
		return err
	}
}

// quarantine discards the stream's entire analysis contribution —
// its shard partial is replaced with a fresh empty one — while keeping
// the wire counters for diagnosis, then drains the feed so the exporter
// behind it completes normally.
func (c *Collector) quarantine(st *stream, raw io.Reader) error {
	st.join() // the fold must be done with the partial before it goes
	st.stats.QuarantinedStreams = 1
	st.tables = nil
	st.recTables = nil
	st.pending, st.pendingBytes = 0, 0
	for i := range st.hourBits {
		st.hourBits[i] = 0
	}
	part := flows.NewShardPartial(c.cfg.Index, c.cfg.Days, c.partialOpts)
	c.mu.Lock()
	c.parts[st.index] = part
	c.mu.Unlock()
	st.part = part
	st.sink = part
	st.publish()
	drainReader(raw)
	return nil
}

// drainReader consumes a reader to EOF so the exporter feeding it can
// complete. Unlike abortReader it must NOT close pipes with an error:
// under a graceful policy the exporter's writes should keep succeeding
// even though nobody analyzes them anymore. A nil reader (mapped-file
// replay: no transport to drain) is a no-op.
func drainReader(r io.Reader) {
	if r == nil {
		return
	}
	io.Copy(io.Discard, r) //nolint:errcheck // best-effort drain
}

// progressReader counts Read returns so the stall watchdog can tell a
// slow stream from a dead one.
type progressReader struct {
	r io.Reader
	n atomic.Uint64
}

func (p *progressReader) Read(b []byte) (int, error) {
	n, err := p.r.Read(b)
	p.n.Add(1)
	return n, err
}

// tapAndWatch wraps a stream's transport for decoding: the Tap seam
// first, then — with a StallTimeout — a progress counter the stall
// watchdog aborts raw against. stop disarms the watchdog.
func (c *Collector) tapAndWatch(st *stream, raw io.Reader) (r io.Reader, stop func()) {
	r = raw
	if c.cfg.Tap != nil {
		r = c.cfg.Tap(st.index, st.source, r)
	}
	if c.cfg.StallTimeout <= 0 {
		return r, func() {}
	}
	pr := &progressReader{r: r}
	done := make(chan struct{})
	go watchStall(pr, raw, st, c.cfg.StallTimeout, done)
	return pr, func() { close(done) }
}

// watchStall aborts raw once pr makes no progress for a full interval.
// The abort surfaces in the decode loop as a transport error with
// st.stalled set, which is then handled per policy.
func watchStall(pr *progressReader, raw io.Reader, st *stream, interval time.Duration, stop chan struct{}) {
	t := time.NewTicker(interval)
	defer t.Stop()
	last := pr.n.Load()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			cur := pr.n.Load()
			if cur == last {
				st.stalled.Store(true)
				abortReader(raw, errStallTimeout)
				return
			}
			last = cur
		}
	}
}

// abortReader unblocks whoever is feeding a stream the collector has
// given up on: a pipe fails its writer, a connection closes, and
// anything else is drained to EOF. Without this, a live exporter would
// back-pressure forever into a stream nobody reads (and stall its
// sibling streams with it).
func abortReader(r io.Reader, cause error) {
	if r == nil {
		return
	}
	switch v := r.(type) {
	case *io.PipeReader:
		v.CloseWithError(cause)
	case io.Closer:
		v.Close()
	default:
		io.Copy(io.Discard, r) //nolint:errcheck // best-effort drain
	}
}
