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
	switch magic, _ := br.Peek(len(fileMagic)); string(magic) {
	case fileMagic:
		return FormatColumnar, br
	case "FDL1":
		return FormatBinary, br
	}
	return FormatJSON, br
}

// ReadAny decodes a whole flow log in any of the three serializations —
// the one front door every loader (CLI, service ingest) goes through.
// opts.Filter selects events in every format: FDC1 is read query-aware,
// the row formats are materialized and filtered in memory with the same
// semantics. The rest of opts, and ctx, apply to the columnar decode.
func ReadAny(ctx context.Context, r io.Reader, opts ReaderOptions) (*flowlog.Log, error) {
	format, br := Sniff(r)
	read := flowlog.ReadJSON
	switch format {
	case FormatColumnar:
		cr, err := NewReaderContext(ctx, br, opts)
		if err != nil {
			return nil, err
		}
		return cr.ReadAll()
	case FormatBinary:
		read = flowlog.ReadBinary
	}
	log, err := read(br)
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
