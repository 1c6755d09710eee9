// Fold hand-off: each stream decodes on its ingest goroutine and folds
// on a goroutine of its own. The decoder fills a chunk with whole flush
// intervals, each closed into the fold calls it makes, and passes full
// chunks through a small ring of reused buffers; the fold goroutine
// makes those calls in order and hands the buffer back. A batch
// stream's intervals arrive classified (see stream.closeRows), so its
// fold goroutine runs only the ShardPartial's fold half.

package collector

import (
	"iotmap/internal/core/flows"
	"iotmap/internal/netflow"
)

// foldRing is how many chunk buffers a stream cycles: one filling, one
// queued, one folding.
const foldRing = 3

// chunkRows is the row budget past which a closed flush interval ships
// its chunk even while the fold is busy. Below it, a chunk waits at
// flush boundaries until nothing is queued for the fold, so a paced
// feed ships every interval promptly while a saturated replay ships
// full chunks and parks its fold goroutine rarely. Half of
// MaxBatchRecords keeps a full chunk plus the short interval that
// tipped it within buffers of MaxBatchRecords rows.
const chunkRows = netflow.MaxBatchRecords / 2

// chunk is one hand-off from a stream's decoder to its fold: the rows of
// whole flush intervals and the fold calls they close into, in order.
// A stream's rows all come one way, from batch frames or from decoded
// records. Rows past the last call belong to the open interval, which
// never leaves the decoder.
type chunk struct {
	rows  netflow.RecordBatch
	calls []foldCall
}

// foldCall is one fold of rows [lo, hi) of the chunk, resolved through
// view's dictionaries: the fold half of part, whose decode half already
// classified them, or else sink.IngestBatch.
type foldCall struct {
	sink   flows.Sink
	part   *flows.ShardPartial
	view   flows.WireView
	lo, hi int
}

// fold makes the chunk's calls in order, then empties the chunk for
// reuse; view is the caller's reused sub-batch header.
func (ch *chunk) fold(view *netflow.RecordBatch) {
	for i := range ch.calls {
		c := &ch.calls[i]
		*view = ch.rows.Slice(c.lo, c.hi)
		if c.part != nil {
			c.part.FoldKept(c.view.Tables(), view)
		} else {
			c.sink.IngestBatch(c.view.Tables(), view)
		}
	}
	ch.rows.Reset()
	clear(ch.calls)
	ch.calls = ch.calls[:0]
}

// folder runs a stream's fold calls. The decoder hands it the chunk
// it is filling and gets back the chunk to fill next.
type folder interface {
	// flushed is called each time a flush interval closes in ch.
	flushed(ch *chunk) *chunk
	// join folds every call of ch and of the chunks handed over before
	// it, discards ch's open interval, and returns once all of it is in
	// the sink; the returned chunk is empty.
	join(ch *chunk) *chunk
	// close ends the folder; the stream is joined and decodes no more.
	close()
}

// pipe is the product folder: a fold goroutine behind a ring of
// foldRing chunk buffers. Both channels hold the whole ring, so no send
// ever blocks; only the decoder's receive from free waits on the fold.
type pipe struct {
	full, free chan *chunk
	done       chan struct{}
}

// newPipe starts a stream's fold goroutine.
func newPipe() folder {
	p := &pipe{
		full: make(chan *chunk, foldRing),
		free: make(chan *chunk, foldRing),
		done: make(chan struct{}),
	}
	for range foldRing - 1 {
		p.free <- new(chunk)
	}
	go p.run()
	return p
}

// run is the fold goroutine: the only caller of Sink.IngestBatch and
// ShardPartial.FoldKept. It exits when close closes full.
func (p *pipe) run() {
	defer close(p.done)
	var view netflow.RecordBatch
	for ch := range p.full {
		ch.fold(&view)
		p.free <- ch
	}
}

// flushed ships ch once it holds chunkRows rows, or as soon as nothing
// is queued for the fold.
func (p *pipe) flushed(ch *chunk) *chunk {
	if len(ch.calls) == 0 || (ch.rows.Len() < chunkRows && len(p.full) != 0) {
		return ch
	}
	p.full <- ch
	return <-p.free
}

// join ships ch, then waits until every other buffer of the ring is
// back: each one was folded and emptied on its way.
func (p *pipe) join(ch *chunk) *chunk {
	p.full <- ch
	ch = <-p.free
	var back [foldRing - 1]*chunk
	for i := range back {
		back[i] = <-p.free
	}
	for _, b := range back {
		p.free <- b
	}
	return ch
}

// close stops the fold goroutine and waits for it to exit.
func (p *pipe) close() {
	close(p.full)
	<-p.done
}
