package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (the product carries no instrumentation yet). Start and End
// are nanoseconds since the tracer was created; Parent indexes the
// enclosing span in the trace (-1 for a root); Pass groups the spans of
// one pass or request.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Pass   int    `json:"pass"`
}

// tracer keeps spans in memory until the run ends. A nil tracer is
// tracing switched off: begin and end do nothing, so untraced runs pay
// one nil check per layer call.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID for end and for children.
func (t *tracer) begin(name string, parent, pass int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: now, Parent: parent, Pass: pass})
	return len(t.spans) - 1
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// all returns the recorded spans (nil when tracing is off).
func (t *tracer) all() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// covered returns how much of [start, end) the intervals cover, counting
// overlaps once — concurrent children must not be subtracted twice.
func covered(start, end int64, ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := start
	for _, iv := range ivs {
		lo, hi := max(iv[0], cur), min(iv[1], end)
		if hi > lo {
			total += hi - lo
			cur = hi
		}
	}
	return total
}

// childCover returns, per span, the part of its interval its direct
// children cover.
func childCover(spans []span) []int64 {
	kids := make([][][2]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		out[i] = covered(s.Start, s.End, kids[i])
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part
// of that interval its child spans cover.
func selfTimes(spans []span) []time.Duration {
	cov := childCover(spans)
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		out[i] = time.Duration(s.End - s.Start - cov[i])
	}
	return out
}

// layerTimes groups the spans' self times by span name: the samples
// behind every per-layer timing a traced run reports.
func layerTimes(spans []span) map[string]samples {
	out := map[string]samples{}
	for i, d := range selfTimes(spans) {
		out[spans[i].Name] = append(out[spans[i].Name], d)
	}
	return out
}

// coverage is the share of the named root spans' time that their child
// spans account for: the ledger-health number. A low value means time
// is passing in the benchmark's own glue or in a call no span names.
func coverage(spans []span, root string) float64 {
	cov := childCover(spans)
	var in, total int64
	for i, s := range spans {
		if s.Name == root {
			in += cov[i]
			total += s.End - s.Start
		}
	}
	if total == 0 {
		return 0
	}
	return float64(in) / float64(total)
}

// traceFile is what a traced run leaves on disk.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Spans    []span `json:"spans"`
}

// writeTrace writes the spans where -trace-out named; with no path the
// traced run keeps them in memory only and leaves nothing behind.
func writeTrace(path string, tf traceFile) error {
	if path == "" {
		return nil
	}
	data, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
