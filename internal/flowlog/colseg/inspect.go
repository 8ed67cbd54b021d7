package colseg

import (
	"context"
	"fmt"
	"io"
	"time"

	"flowdiff/internal/obs"
)

// ColumnInfo is one column's per-segment index entry: its encoded block
// size and its value range (dictionary columns report their cardinality
// in both fields).
type ColumnInfo struct {
	Name     string
	Size     int
	Min, Max uint64
}

// SegmentInfo is one segment's metadata as the pruning logic sees it —
// everything here is read without decoding a single payload byte.
type SegmentInfo struct {
	MinTime, MaxTime time.Duration
	Events           int
	PayloadLen       int
	IndexLen         int
	Columns          []ColumnInfo
	// Hosts / Switches are the membership-summary cardinalities; -1 when
	// the summary overflowed (membership pruning disabled).
	Hosts, Switches int
}

// FileInfo is the metadata of a whole FDC1 file.
type FileInfo struct {
	Version         int
	NumColumns      int
	Start, End      time.Duration
	SegmentDuration time.Duration
	Segments        []SegmentInfo
	// Events and PayloadLen aggregate over all segments.
	Events     int
	PayloadLen int
}

// Inspect scans an FDC1 stream's metadata — header, segment preambles
// and indexes — without decoding any payload. It runs the Reader's own
// header check and segment-metadata walk, so what Inspect reports is
// exactly what the reader's segment pruning gets to look at. It records
// no metrics.
func Inspect(r io.Reader) (*FileInfo, error) {
	rd := &Reader{decodeState: borrow(r)}
	defer rd.release()
	if err := rd.open(obs.WithRegistry(context.Background(), nil), ReaderOptions{}); err != nil {
		return nil, err
	}
	info := &FileInfo{
		Version:         formatVersion,
		NumColumns:      numColumns,
		Start:           rd.start,
		End:             rd.end,
		SegmentDuration: rd.width,
	}
	for {
		meta, done, err := rd.readMeta()
		if err != nil {
			return nil, err
		}
		if done {
			return info, nil
		}
		if _, err := rd.br.Discard(meta.payloadLen); err != nil {
			return nil, fmt.Errorf("colseg: skipping segment payload: %w", err)
		}
		x := meta.index
		seg := SegmentInfo{
			MinTime:    meta.minT,
			MaxTime:    meta.maxT,
			Events:     meta.count,
			PayloadLen: meta.payloadLen,
			IndexLen:   len(rd.idxBuf),
			Columns:    make([]ColumnInfo, numColumns),
			Hosts:      -1,
			Switches:   -1,
		}
		if x.hostsExact {
			seg.Hosts = len(x.hosts)
		}
		if x.switchesExact {
			seg.Switches = len(x.switches)
		}
		for c := range seg.Columns {
			seg.Columns[c] = ColumnInfo{
				Name: columnNames[c], Size: x.blockLen(c, meta.payloadLen),
				Min: x.stats[c][0], Max: x.stats[c][1],
			}
		}
		info.Events += seg.Events
		info.PayloadLen += seg.PayloadLen
		info.Segments = append(info.Segments, seg)
	}
}
