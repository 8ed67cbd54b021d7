package colseg

import (
	"flowdiff/internal/flowlog"
	"flowdiff/internal/parallel"
)

// decodeSlot is one readahead position: the segment metadata and raw
// column blocks loaded by the reading goroutine, and the decode outputs
// produced by a worker. Slabs and scratch persist across rounds, so
// steady-state decode allocates nothing — peak heap is bounded by the
// slot count times the widest segment.
type decodeSlot struct {
	meta     segMeta
	blocks   [numColumns][]byte
	slab     []byte
	sc       decodeScratch
	evs      []flowlog.Event
	filtered int
	err      error
}

// pipeline is the bounded-readahead parallel decode: the reader's own
// goroutine fills slots in file order (IO stays sequential — pruning,
// projection Discards, and CRC-verified block loads all happen there),
// a parallel.ForContext pool decodes the filled slots concurrently, and
// slots are served strictly in slot order. Output is therefore
// byte-identical to the serial reader at every worker count; the only
// divergence is that workers skip the cross-segment switch-name
// interning map (per-segment strings are value-equal).
type pipeline struct {
	workers int
	slots   []*decodeSlot
	next    int // next slot to serve
	n       int // slots filled this round
	// err is a stream-side (tag/preamble/index/load) error hit while
	// refilling; it surfaces only after the slots filled before it have
	// been served, matching the serial reader's error position.
	err error
}

// newPipeline sizes the readahead at twice the clamped worker count, or
// reports (nil) that the serial path should run.
func newPipeline(requested int) *pipeline {
	if requested <= 1 {
		return nil
	}
	workers := parallel.Clamp(requested)
	if workers <= 1 {
		return nil
	}
	slots := make([]*decodeSlot, 2*workers)
	for i := range slots {
		slots[i] = &decodeSlot{}
	}
	return &pipeline{workers: workers, slots: slots}
}

// refill loads the next run of undecoded segments into the slots (in
// file order, pruning as it goes) and decodes them concurrently. On
// cancellation the pool drains and the ctx error is returned; slot
// outputs are then discarded by the terminal-error contract in Next.
func (r *Reader) refill() error {
	p := r.par
	p.next, p.n = 0, 0
	for p.n < len(p.slots) {
		meta, done, err := r.readMeta()
		if err != nil {
			p.err = err
			break
		}
		if done {
			r.srcDone = true
			break
		}
		if pruned, byIndex := r.prune(&meta); pruned {
			if err := r.skipSegment(&meta, byIndex); err != nil {
				p.err = err
				break
			}
			continue
		}
		s := p.slots[p.n]
		s.meta = meta
		if s.slab, err = r.loadBlocks(&s.meta, &s.blocks, s.slab); err != nil {
			p.err = err
			break
		}
		p.n++
	}
	r.m.occupancy.Set(int64(p.n))
	if p.n == 0 {
		return nil
	}
	sp := r.reg.Span("colseg.decode")
	err := parallel.ForContext(r.ctx, p.n, p.workers, func(i int) {
		s := p.slots[i]
		s.evs, s.filtered, s.err = decodeBlocks(&s.blocks, s.meta.count, r.spec, nil, &s.sc, s.evs[:0])
	})
	sp.End()
	return err
}

// nextSegmentParallel serves the next decoded slot in file order,
// refilling the pipeline when the current round is drained. Counters
// for decoded segments/events are bumped at delivery, so their values
// are identical to the serial reader's whatever the worker count.
func (r *Reader) nextSegmentParallel() error {
	p := r.par
	for p.next >= p.n {
		if p.err != nil {
			return p.err
		}
		if r.srcDone {
			r.done = true
			r.seg, r.pos = nil, 0
			return nil
		}
		if err := r.refill(); err != nil {
			return err
		}
	}
	s := p.slots[p.next]
	p.next++
	if s.err != nil {
		return s.err
	}
	r.m.segsRead.Inc()
	r.m.evsDecoded.Add(int64(len(s.evs)))
	r.m.evsFiltered.Add(int64(s.filtered))
	r.seg, r.pos = s.evs, 0
	return nil
}
