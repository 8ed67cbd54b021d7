package colseg

import (
	"context"
	"io"
	"net/netip"

	"flowdiff/internal/flowlog"
)

// ReadAnyInto decodes a whole flow log in either serialization — the
// one front door every loader (CLI, service ingest) goes through. The
// magic prefix picks the decoder: "FDC1" is this package's columnar
// format, whose header check also fails the retired row binary's
// "FDL1" with an error naming it; anything else, input shorter than a
// magic included, goes to the JSON decoder, which then says what is
// wrong with it. opts.Filter selects events in both formats: FDC1 is
// read query-aware, JSON is materialized and filtered in memory with
// the same semantics. ctx, which carries the decode metrics' registry,
// applies to the columnar decode only.
//
// Either body decodes onto dst, growing it when short (a nil dst
// allocates), and never reads what it held: FDC1 writes every field of
// every event, JSON zeroes each slot the first time it writes it.
// Either way the returned Events are the caller's to reuse.
// The decode state (buffered reader, payload slab, column scratch,
// switch-name table) is pooled across calls and keeps no view of r.
func ReadAnyInto(ctx context.Context, r io.Reader, opts ReaderOptions, dst []flowlog.Event) (*flowlog.Log, error) {
	rd := Reader{decodeState: borrow(r)}
	defer rd.release()
	switch magic, _ := rd.br.Peek(len(fileMagic)); string(magic) {
	case fileMagic, retiredMagic:
		if err := rd.open(ctx, opts); err != nil {
			return nil, err
		}
		return rd.readAll(dst)
	}
	log, err := flowlog.ReadJSON(rd.br, dst...)
	if err != nil {
		return nil, err
	}
	return opts.Filter.apply(log), nil
}

// apply filters a materialized log with the semantics of a filtered
// columnar read, bounds included.
func (f Filter) apply(log *flowlog.Log) *flowlog.Log {
	if !f.active() {
		return log
	}
	hosts := make(map[netip.Addr]bool, len(f.Hosts))
	for _, a := range f.Hosts {
		hosts[a] = true
	}
	out := flowlog.New(log.Start, log.End)
	if f.timeActive() {
		out.Start, out.End = f.From, f.To
	}
	for _, e := range log.Events {
		if f.timeActive() && (e.Time < f.From || e.Time >= f.To) {
			continue
		}
		if len(hosts) > 0 && !hosts[e.Flow.Src] && !hosts[e.Flow.Dst] {
			continue
		}
		out.Events = append(out.Events, e)
	}
	return out
}
