// Package faultwire is the deterministic chaos harness for the framed
// NetFlow wire path: a seeded io.Reader wrapper that damages a clean
// frame stream the way production feeds are damaged — corrupted bytes,
// dropped and duplicated frames, frames cut short mid-payload, reads
// that dribble or stall, and transports that die mid-week — plus a
// Scenario type that schedules which faults hit which stream during
// which study hours ("vantage B's feed dies Wednesday 14:00").
//
// Hour windows act on dictionary rows. A stream's FrameHello sets the
// epoch its batch rows' hour column counts from; when a stream's rules
// include an hour window, every batch frame is cut into runs of rows
// under the same active rules, and each run is damaged as a frame of
// its own. Frames without rows (hello, dictionary and flush frames) see
// only the rules that have no hour window.
//
// Every byte-altering decision draws from a simrand stream derived from
// (Scenario.Seed, vantage, stream index) at frame granularity, so the
// damaged byte stream is a pure function of the seed and the clean
// feed: two runs with the same fault seed produce byte-identical
// damage, hence byte-identical collector Stats and figures. Stalls and
// short reads only shape the timing of delivery, never its content, so
// enabling them cannot move a figure.
package faultwire

import (
	"errors"
	"io"
	"math"
	"sync"
	"time"

	"iotmap/internal/netflow"
	"iotmap/internal/simrand"
)

// ErrInjectedDisconnect is the sticky error a killed stream returns —
// the harness's stand-in for a mid-week TCP reset.
var ErrInjectedDisconnect = errors.New("faultwire: injected disconnect")

// Faults is one rule's fault mix. Probabilities are per frame;
// zero-valued fields inject nothing.
type Faults struct {
	// CorruptProb flips one bit of the frame. Half the corruptions land
	// in the 7-byte frame envelope (exercising the collector's resync
	// scan), half anywhere in the payload (exercising decode-and-drop) —
	// a deliberate bias so short runs see both failure modes.
	CorruptProb float64
	// DropProb silently omits the frame.
	DropProb float64
	// DupProb emits the frame twice.
	DupProb float64
	// TruncateProb emits only a prefix of the frame, desyncing the
	// stream until the collector scans back to a frame boundary.
	TruncateProb float64
	// ShortReads caps each Read at a few bytes (reader side only);
	// content-neutral.
	ShortReads bool
	// StallEvery, when > 0, sleeps StallFor before every StallEvery-th
	// frame; content-neutral.
	StallEvery int
	StallFor   time.Duration
	// Kill hard-stops the stream at the first frame the rule is active
	// for (with an hour window, the first row inside it): the transport
	// dies with ErrInjectedDisconnect (or a clean EOF when KillClean is
	// set) and nothing more is delivered.
	Kill      bool
	KillClean bool
}

// Rule schedules a fault mix onto part of the federation: a stream, a
// vantage, a study-hour window — or all of them.
type Rule struct {
	// Stream selects one stream index; negative means every stream.
	Stream int
	// Vantage selects one vantage label; empty means every vantage.
	Vantage string
	// FromHour/ToHour bound the active study-hour window (inclusive
	// start, exclusive end). ToHour <= 0 leaves the window open-ended,
	// so the zero value is "always active". A window applies to
	// dictionary rows only (see the package comment).
	FromHour, ToHour int
	Faults           Faults
}

// noHour is the hour of a frame that carries no rows.
const noHour = math.MinInt

// timed reports whether the rule has an hour window.
func (r Rule) timed() bool { return r.FromHour > 0 || r.ToHour > 0 }

// active reports whether the rule applies at the given study hour: an
// untimed rule everywhere, a timed one only inside its window (never at
// noHour). Stream/vantage matching has already happened by the time a
// rule is attached to an injector.
func (r Rule) active(hour int) bool {
	if !r.timed() {
		return true
	}
	return hour >= r.FromHour && (r.ToHour <= 0 || hour < r.ToHour)
}

// matches reports whether the rule could ever apply to the stream,
// regardless of hour — Wrap returns the reader untouched otherwise.
func (r Rule) matches(stream int, vantage string) bool {
	return (r.Stream < 0 || r.Stream == stream) && (r.Vantage == "" || r.Vantage == vantage)
}

// Counts tallies the faults one stream actually suffered.
type Counts struct {
	Corrupted  int64
	Dropped    int64
	Duplicated int64
	Truncated  int64
	Stalls     int64
	Killed     bool
}

func (c *Counts) add(o Counts) {
	c.Corrupted += o.Corrupted
	c.Dropped += o.Dropped
	c.Duplicated += o.Duplicated
	c.Truncated += o.Truncated
	c.Stalls += o.Stalls
	c.Killed = c.Killed || o.Killed
}

// Scenario is a reproducible chaos schedule over a federation's wire
// streams. Start anchors study hour 0: a row's study hour is its
// stream's hello epoch plus its hour column, counted from Start (a zero
// Start counts from the epoch). Seed drives every fault draw.
type Scenario struct {
	Seed  int64
	Start time.Time
	Rules []Rule

	mu     sync.Mutex
	totals Counts
}

// Totals returns the fault counts accumulated across every wrapped
// stream so far.
func (s *Scenario) Totals() Counts {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.totals
}

func (s *Scenario) record(c Counts) {
	s.mu.Lock()
	s.totals.add(c)
	s.mu.Unlock()
}

// rulesFor filters the schedule down to one stream. A nil result means
// the stream is untouched.
func (s *Scenario) rulesFor(stream int, vantage string) []Rule {
	var out []Rule
	for _, r := range s.Rules {
		if r.matches(stream, vantage) {
			out = append(out, r)
		}
	}
	return out
}

// Wrap returns r with the scenario's faults injected for (stream,
// vantage). Streams no rule matches are returned untouched — a
// scenario scoped to one vantage leaves the rest of the federation
// byte-identical to a clean run.
func (s *Scenario) Wrap(stream int, vantage string, r io.Reader) io.Reader {
	rules := s.rulesFor(stream, vantage)
	if rules == nil {
		return r
	}
	return &Reader{
		inner: netflow.NewFrameReader(r),
		inj:   s.newInjector(vantage, stream, rules),
		io:    simrand.New(simrand.SeedN(s.Seed, "faultwire-io/"+vantage, int64(stream))),
		sc:    s,
	}
}

func (s *Scenario) newInjector(vantage string, stream int, rules []Rule) *injector {
	in := &injector{
		rng:       simrand.New(simrand.SeedN(s.Seed, "faultwire/"+vantage, int64(stream))),
		rules:     rules,
		startUnix: s.Start.Unix(),
		haveStart: !s.Start.IsZero(),
	}
	for _, r := range rules {
		in.timed = in.timed || r.timed()
	}
	return in
}

// injector is the per-stream fault engine: it sees the clean stream one
// frame at a time, in order, and decides each frame's fate with draws
// from its seeded rng — so the damage is independent of how the bytes
// are chunked by the transport around it.
type injector struct {
	rng   *simrand.Source
	rules []Rule
	// timed is set when some rule has an hour window; batch frames are
	// then cut into runs (see frame).
	timed bool
	// startUnix anchors study hour 0 when haveStart is set. off is the
	// study hour of the current hello epoch, hour the newest run's.
	startUnix int64
	haveStart bool
	off, hour int
	frames    int64
	counts    Counts
	// buf holds the frame being damaged, batch a timed stream's decoded
	// batch frame.
	buf   []byte
	batch netflow.RecordBatch
}

// frame damages one clean frame onto dst. A hello sets the epoch row
// hours count from. In a timed stream a batch frame is cut into maximal
// runs of consecutive rows under the same set of active rules; each run
// is re-encoded as its own batch frame and damaged at its first row's
// hour, so a kill still delivers the runs before it. Every other frame,
// and every frame of an untimed stream, passes through whole at noHour.
func (in *injector) frame(dst []byte, f netflow.Frame) ([]byte, error) {
	if f.Type == netflow.FrameHello && in.haveStart {
		if _, epoch, err := netflow.DecodeHelloPayload(f.Payload); err == nil {
			in.off = int((epoch - in.startUnix) / 3600)
		}
	}
	b := &in.batch
	b.Reset()
	if !in.timed || f.Type != netflow.FrameBatch || netflow.DecodeBatchPayload(f.Payload, b) != nil || b.Len() == 0 {
		// The reader accepted the frame, so re-framing it cannot fail.
		in.buf, _ = netflow.AppendFrame(in.buf[:0], f.Type, f.Payload)
		return in.process(dst, in.buf, noHour)
	}
	for lo := 0; lo < b.Len(); {
		hour := in.off + int(b.Hour[lo])
		hi := lo + 1
		for hi < b.Len() && in.sameRules(hour, in.off+int(b.Hour[hi])) {
			hi++
		}
		run := netflow.RecordBatch{
			Line: b.Line[lo:hi], Backend: b.Backend[lo:hi], Down: b.Down[lo:hi], Hour: b.Hour[lo:hi],
			Port: b.Port[lo:hi], Proto: b.Proto[lo:hi], Bytes: b.Bytes[lo:hi], Packets: b.Packets[lo:hi],
		}
		// Decoded hours fit the wire column, so re-encoding cannot fail.
		in.buf, _, _ = netflow.AppendBatchFrames(in.buf[:0], &run)
		in.hour = hour
		var err error
		if dst, err = in.process(dst, in.buf, hour); err != nil {
			return dst, err
		}
		lo = hi
	}
	return dst, nil
}

// sameRules reports whether the same rules are active at hours a and b.
func (in *injector) sameRules(a, b int) bool {
	for _, r := range in.rules {
		if r.active(a) != r.active(b) {
			return false
		}
	}
	return true
}

// process applies the rules active at hour to one clean frame
// (envelope+payload as raw bytes; process may mutate it), sleeps any
// scheduled stall, and appends the damaged output to dst. It returns
// the kill error once the stream is scheduled dead.
func (in *injector) process(dst []byte, frame []byte, hour int) ([]byte, error) {
	in.frames++
	var stall time.Duration
	drop, dup, truncAt := false, false, -1
	for _, r := range in.rules {
		if !r.active(hour) {
			continue
		}
		f := r.Faults
		if f.Kill {
			in.counts.Killed = true
			if f.KillClean {
				return dst, io.EOF
			}
			return dst, ErrInjectedDisconnect
		}
		if f.DropProb > 0 && in.rng.Bool(f.DropProb) {
			drop = true
		}
		if f.TruncateProb > 0 && in.rng.Bool(f.TruncateProb) && len(frame) > 1 {
			truncAt = 1 + in.rng.Intn(len(frame)-1)
		}
		if f.CorruptProb > 0 && in.rng.Bool(f.CorruptProb) {
			pos := in.rng.Intn(len(frame))
			if in.rng.Bool(0.5) || len(frame) <= 7 {
				pos = in.rng.Intn(7) // envelope hit: exercises resync
			}
			// An envelope flip can still yield a valid-looking header
			// whose length now points past the real frame — that is the
			// desync case resync exists for, so keep whatever falls out.
			frame[pos] ^= byte(1) << in.rng.Intn(8)
			in.counts.Corrupted++
		}
		if f.DupProb > 0 && in.rng.Bool(f.DupProb) {
			dup = true
		}
		if f.StallEvery > 0 && in.frames%int64(f.StallEvery) == 0 {
			stall = f.StallFor
			in.counts.Stalls++
		}
	}
	if stall > 0 {
		time.Sleep(stall)
	}
	switch {
	case drop:
		in.counts.Dropped++
	case truncAt >= 0:
		in.counts.Truncated++
		dst = append(dst, frame[:truncAt]...)
	default:
		dst = append(dst, frame...)
		if dup {
			in.counts.Duplicated++
			dst = append(dst, frame...)
		}
	}
	return dst, nil
}

// shortReads reports whether any rule currently dribbles reads.
func (in *injector) shortReads() bool {
	for _, r := range in.rules {
		if r.Faults.ShortReads && r.active(in.hour) {
			return true
		}
	}
	return false
}

// Reader serves the damaged byte stream of one wrapped feed. It parses
// clean frames from the inner reader, damages them per the schedule,
// and hands the bytes out through Read — possibly a dribble at a time
// when short reads are scheduled.
type Reader struct {
	inner *netflow.FrameReader
	inj   *injector
	io    *simrand.Source
	sc    *Scenario
	out   []byte
	err   error
	done  bool
}

// Read implements io.Reader over the damaged stream.
func (r *Reader) Read(p []byte) (int, error) {
	for len(r.out) == 0 {
		if r.err != nil {
			r.finish()
			return 0, r.err
		}
		f, err := r.inner.Next()
		if err != nil {
			// The clean inner feed ended (or failed); pass it through.
			r.err = err
			continue
		}
		// On a kill, the runs damaged before it are still delivered.
		r.out, r.err = r.inj.frame(r.out[:0], f)
	}
	n := len(p)
	if r.inj.shortReads() {
		if lim := 1 + r.io.Intn(7); lim < n {
			n = lim
		}
	}
	if n > len(r.out) {
		n = len(r.out)
	}
	n = copy(p[:n], r.out)
	r.out = r.out[n:]
	return n, nil
}

// Counts returns the faults this stream has suffered so far.
func (r *Reader) Counts() Counts { return r.inj.counts }

// finish folds the stream's fault counts into the scenario totals,
// once, when the stream ends.
func (r *Reader) finish() {
	if r.done {
		return
	}
	r.done = true
	r.sc.record(r.inj.counts)
}
