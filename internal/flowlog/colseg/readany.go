package colseg

import (
	"bufio"
	"context"
	"io"
	"net/netip"

	"flowdiff/internal/flowlog"
)

// Format is a flow-log serialization, identified by its magic prefix.
type Format int

const (
	// FormatJSON has no magic: whatever is neither of the others,
	// including input shorter than a magic (the JSON decoder then says
	// what is wrong with it).
	FormatJSON     Format = iota
	FormatBinary          // flowlog's row format, magic "FDL1"
	FormatColumnar        // this package's segmented format, magic "FDC1"
)

// Sniff peeks r's magic prefix and reports its serialization. Decoding
// continues from the returned reader, which replays the peeked bytes.
func Sniff(r io.Reader) (Format, *bufio.Reader) {
	br := bufio.NewReader(r)
	return sniff(br), br
}

func sniff(br *bufio.Reader) Format {
	switch magic, _ := br.Peek(len(fileMagic)); string(magic) {
	case fileMagic:
		return FormatColumnar
	case "FDL1":
		return FormatBinary
	}
	return FormatJSON
}

// ReadAnyInto decodes a whole flow log in any of the three
// serializations — the one front door every loader (CLI, service
// ingest) goes through. opts.Filter selects events in every format:
// FDC1 is read query-aware, the row formats are materialized and
// filtered in memory with the same semantics. The rest of opts, and
// ctx, apply to the columnar decode.
//
// An FDC1 body decodes onto dst[:0] with every field of every event
// written, growing it when short (a nil dst allocates); the row formats
// allocate their own. Either way the returned Events are the caller's
// to reuse. The decode state (buffered reader, payload slab, column
// scratch, switch-name table) is pooled across calls and keeps no view
// of r.
func ReadAnyInto(ctx context.Context, r io.Reader, opts ReaderOptions, dst []flowlog.Event) (*flowlog.Log, error) {
	rd := readers.Get().(*Reader)
	defer rd.release()
	rd.br.Reset(r)
	read := flowlog.ReadJSON
	switch sniff(rd.br) {
	case FormatColumnar:
		if err := rd.open(ctx, opts); err != nil {
			return nil, err
		}
		return rd.readAll(dst)
	case FormatBinary:
		read = flowlog.ReadBinary
	}
	log, err := read(rd.br)
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
	switches := make(map[string]bool, len(f.Switches))
	for _, s := range f.Switches {
		switches[s] = true
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
		if len(switches) > 0 && !switches[e.Switch] {
			continue
		}
		out.Events = append(out.Events, e)
	}
	return out
}
