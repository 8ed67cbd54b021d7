package colseg

import (
	"fmt"
	"slices"
	"time"

	"flowdiff/internal/flowlog"
)

// decodeBlocksReference is the column-pass decode the one-pass kernel
// replaced, kept as its oracle: after the shared row pre-pass it writes
// time and the dictionary columns into every kept row, then sweeps the
// batch once per value column through a per-row closure. FuzzReadSegment
// holds decodeBlocks to it.
func decodeBlocksReference(blocks *[numColumns][]byte, count int, spec *querySpec, names map[string]string, sc *decodeScratch, dst []flowlog.Event) (out []flowlog.Event, filtered int, err error) {
	rows, err := decodeRows(blocks, count, spec, names, sc)
	if err != nil {
		return nil, 0, err
	}
	keep := rows.keep

	// Materialize exactly the kept rows. dst may be a recycled buffer;
	// every field is about to be overwritten.
	out = slices.Grow(dst, rows.kept)[:len(dst)+rows.kept]
	evs := out[len(dst):]
	j := 0
	for i := 0; i < count; i++ {
		if keep != nil && !keep[i] {
			continue
		}
		evs[j].Time = time.Duration(rows.times[i])
		evs[j].Flow.Src = rows.srcDict[rows.srcIDs[i]]
		evs[j].Flow.Dst = rows.dstDict[rows.dstIDs[i]]
		evs[j].Switch = rows.swDict[rows.swIDs[i]]
		j++
	}

	rle := func(col int, name string, set func(*flowlog.Event, byte)) error {
		c := cursor{b: blocks[col]}
		j := 0
		for i := 0; i < count; {
			run, err := c.uvarint()
			if err != nil {
				return fmt.Errorf("colseg: %s column: %w", name, err)
			}
			v, err := c.byte()
			if err != nil {
				return fmt.Errorf("colseg: %s column: %w", name, err)
			}
			if run == 0 || run > uint64(count-i) {
				return fmt.Errorf("colseg: %s column: implausible run length %d", name, run)
			}
			for k := 0; k < int(run); k++ {
				if keep == nil || keep[i+k] {
					set(&evs[j], v)
					j++
				}
			}
			i += int(run)
		}
		return nil
	}
	if err := rle(columnType, "type", func(e *flowlog.Event, v byte) { e.Type = flowlog.EventType(v) }); err != nil {
		return nil, 0, err
	}
	if err := rle(columnReason, "reason", func(e *flowlog.Event, v byte) { e.Reason = v }); err != nil {
		return nil, 0, err
	}
	if err := rle(columnProto, "proto", func(e *flowlog.Event, v byte) { e.Flow.Proto = v }); err != nil {
		return nil, 0, err
	}

	uvar := func(col int, name string, set func(*flowlog.Event, uint64)) error {
		c := cursor{b: blocks[col]}
		j := 0
		for i := 0; i < count; i++ {
			v, err := c.uvarint()
			if err != nil {
				return fmt.Errorf("colseg: %s column: %w", name, err)
			}
			if keep == nil || keep[i] {
				set(&evs[j], v)
				j++
			}
		}
		return nil
	}
	if err := uvar(columnSrcPort, "srcPort", func(e *flowlog.Event, v uint64) { e.Flow.SrcPort = uint16(v) }); err != nil {
		return nil, 0, err
	}
	if err := uvar(columnDstPort, "dstPort", func(e *flowlog.Event, v uint64) { e.Flow.DstPort = uint16(v) }); err != nil {
		return nil, 0, err
	}
	if err := uvar(columnInPort, "inPort", func(e *flowlog.Event, v uint64) { e.InPort = uint16(v) }); err != nil {
		return nil, 0, err
	}
	if err := uvar(columnOutPort, "outPort", func(e *flowlog.Event, v uint64) { e.OutPort = uint16(v) }); err != nil {
		return nil, 0, err
	}
	if err := uvar(columnDPID, "dpid", func(e *flowlog.Event, v uint64) { e.DPID = v }); err != nil {
		return nil, 0, err
	}
	if err := uvar(columnBytes, "bytes", func(e *flowlog.Event, v uint64) { e.Bytes = v }); err != nil {
		return nil, 0, err
	}
	if err := uvar(columnPackets, "packets", func(e *flowlog.Event, v uint64) { e.Packets = v }); err != nil {
		return nil, 0, err
	}
	if err := uvar(columnFlowDur, "flowDuration", func(e *flowlog.Event, v uint64) { e.FlowDuration = time.Duration(v) }); err != nil {
		return nil, 0, err
	}

	return out, count - rows.kept, nil
}
