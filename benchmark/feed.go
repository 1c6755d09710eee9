package main

import (
	"fmt"
	"net/netip"
	"time"

	"iotmap/internal/isp"
	"iotmap/internal/netflow"
)

// chronoFeed is one dictionary-format stream in arrival order: chunk h
// carries study hour h's records (dictionary deltas for addresses making
// their debut, the rows as batch frames, one flush), and the first chunk
// opens with the hello frame. It is the feed a live exporter would send
// a daemon — hours arrive in order, so a sliding window evicts and never
// sees a late record — where the product's own exporter
// (SimulateLinesToWireFormat) is line-major and spans the whole clock in
// every flush.
type chronoFeed struct {
	all     []byte   // the whole feed
	chunks  [][]byte // all, cut at the hour boundaries
	records int64
}

// buildChronoFeed simulates the days in order on n and encodes each
// study hour as one chunk. n must be fresh: device homing state carries
// across SimulateDay calls, so a reused Network feeds different records.
func buildChronoFeed(n *isp.Network, days []time.Time) (*chronoFeed, error) {
	epoch := days[0].Unix()
	feed := &chronoFeed{}
	lineIDs := map[netip.Addr]uint32{}
	backIDs := map[netip.Addr]uint32{}
	var newLines, newBacks []netip.Addr
	intern := func(ids map[netip.Addr]uint32, pending *[]netip.Addr, a netip.Addr) uint32 {
		id, ok := ids[a]
		if !ok {
			id = uint32(len(ids))
			ids[a] = id
			*pending = append(*pending, a)
		}
		return id
	}
	var hourly [24][]netflow.Record
	var batch netflow.RecordBatch
	var out []byte
	ends := make([]int, 0, len(days)*24) // where each hour's chunk ends in out
	for d := range days {
		for h := range hourly {
			hourly[h] = hourly[h][:0]
		}
		var bad error
		n.SimulateDay(d, func(r netflow.Record) {
			h := (r.Start.Unix()-epoch)/3600 - int64(d)*24
			if h < 0 || h >= 24 {
				bad = fmt.Errorf("feed: day %d emitted a record starting %v", d, r.Start)
				return
			}
			hourly[h] = append(hourly[h], r)
		})
		if bad != nil {
			return nil, bad
		}
		for h, recs := range hourly {
			if len(out) == 0 {
				out = netflow.AppendHelloFrame(out, n.Cfg.SamplingRate, epoch)
			}
			batch.Reset()
			for _, r := range recs {
				// The address plan decides which end is the subscriber,
				// exactly as the product's exporter classifies.
				line, back, down, port := r.Dst, r.Src, true, r.SrcPort
				if _, _, ok := isp.LineSlot(r.Dst); !ok {
					if _, _, ok := isp.LineSlot(r.Src); !ok {
						return nil, fmt.Errorf("feed: record %v -> %v has no subscriber side", r.Src, r.Dst)
					}
					line, back, down, port = r.Src, r.Dst, false, r.DstPort
				}
				batch.Append(intern(lineIDs, &newLines, line), intern(backIDs, &newBacks, back),
					down, int32(d*24+h), port, r.Proto, r.Bytes, r.Packets)
			}
			var err error
			if len(newLines) > 0 {
				base := uint32(len(lineIDs) - len(newLines))
				if out, err = netflow.AppendDictFrame(out, netflow.FrameLineDict, base, newLines); err != nil {
					return nil, err
				}
				newLines = newLines[:0]
			}
			if len(newBacks) > 0 {
				base := uint32(len(backIDs) - len(newBacks))
				if out, err = netflow.AppendDictFrame(out, netflow.FrameBackendDict, base, newBacks); err != nil {
					return nil, err
				}
				newBacks = newBacks[:0]
			}
			if out, _, err = netflow.AppendBatchFrames(out, &batch); err != nil {
				return nil, err
			}
			out = netflow.AppendFlushFrame(out)
			ends = append(ends, len(out))
			feed.records += int64(len(recs))
		}
	}
	feed.all = out
	start := 0
	for _, end := range ends {
		feed.chunks = append(feed.chunks, out[start:end:end])
		start = end
	}
	return feed, nil
}
