package main

import (
	"encoding/binary"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"flowdiff/internal/flowlog/colseg"
)

// runInspect implements the inspect subcommand: print the metadata a
// query-aware read gets to prune on — per-segment time ranges, event
// counts, per-column encoded sizes, dictionary cardinalities, and the
// footer version — without decoding any payload. FDL1 files report
// their (segment-less) header.
func runInspect(args []string) error {
	fs := flag.NewFlagSet("flowdiff inspect", flag.ExitOnError)
	columns := fs.Bool("columns", false, "also print the per-segment per-column size breakdown")
	// ExitOnError: Parse never returns a non-nil error to us.
	_ = fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("inspect: exactly one log file argument is required")
	}
	path := fs.Arg(0)
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("inspect: %w", err)
	}
	defer f.Close()
	switch format, br := colseg.Sniff(f); format {
	case colseg.FormatColumnar:
		return inspectColumnar(path, br, *columns)
	case colseg.FormatBinary:
		return inspectBinary(path, br)
	}
	return fmt.Errorf("inspect: %s is not an FDC1 or FDL1 file", path)
}

func inspectColumnar(path string, r io.Reader, columns bool) error {
	info, err := colseg.Inspect(r)
	if err != nil {
		return fmt.Errorf("inspect: %s: %w", path, err)
	}
	fmt.Printf("file:     %s\n", path)
	fmt.Printf("format:   FDC1 version %d, %d columns\n", info.Version, info.NumColumns)
	fmt.Printf("bounds:   [%v, %v], segment width %v\n", info.Start, info.End, info.SegmentDuration)
	fmt.Printf("segments: %d, events %d, payload %d bytes\n\n", len(info.Segments), info.Events, info.PayloadLen)

	for i, seg := range info.Segments {
		card := func(n int) string {
			if n < 0 {
				return "-"
			}
			return fmt.Sprintf("%d", n)
		}
		fmt.Printf("seg %3d: [%v, %v]  %d events  payload %d B  index %d B  hosts %s  switches %s\n",
			i, seg.MinTime, seg.MaxTime, seg.Events, seg.PayloadLen, seg.IndexLen,
			card(seg.Hosts), card(seg.Switches))
		if !columns {
			continue
		}
		for _, col := range seg.Columns {
			if seg.HasStats {
				fmt.Printf("         %-12s %7d B  range [%d, %d]\n", col.Name, col.Size, col.Min, col.Max)
			} else {
				fmt.Printf("         %-12s %7d B\n", col.Name, col.Size)
			}
		}
	}

	// Aggregate per-column sizes across segments: the projection payoff
	// table — each line is what a read skipping that column saves.
	totals := make([]int, info.NumColumns)
	var names []string
	for _, seg := range info.Segments {
		for c, col := range seg.Columns {
			totals[c] += col.Size
			if len(names) <= c {
				names = append(names, col.Name)
			}
		}
	}
	if len(info.Segments) > 0 {
		fmt.Printf("\ncolumn totals:\n")
		for c, name := range names {
			pct := 0.0
			if info.PayloadLen > 0 {
				pct = 100 * float64(totals[c]) / float64(info.PayloadLen)
			}
			fmt.Printf("  %-12s %9d B  %5.1f%%\n", name, totals[c], pct)
		}
	}
	return nil
}

// inspectBinary prints the FDL1 row-format header: it has no segments
// or per-column layout, so the header is the whole metadata surface.
func inspectBinary(path string, r io.Reader) error {
	var hdr [24]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return fmt.Errorf("inspect: %s: reading FDL1 header: %w", path, err)
	}
	start := time.Duration(binary.BigEndian.Uint64(hdr[4:12]))
	end := time.Duration(binary.BigEndian.Uint64(hdr[12:20]))
	count := binary.BigEndian.Uint32(hdr[20:24])
	fmt.Printf("file:   %s\n", path)
	fmt.Printf("format: FDL1 (row binary; no segments)\n")
	fmt.Printf("bounds: [%v, %v]\n", start, end)
	fmt.Printf("events: %d\n", count)
	return nil
}
