package main

import (
	"flag"
	"fmt"
	"os"

	"flowdiff/internal/flowlog/colseg"
)

// runInspect implements the inspect subcommand: print the metadata a
// query-aware read gets to prune on — per-segment time ranges, event
// counts, per-column encoded sizes and value ranges, and dictionary
// cardinalities — without decoding any payload. Only FDC1 files have
// that metadata; any other file fails the header check.
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
	info, err := colseg.Inspect(f)
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
		if !*columns {
			continue
		}
		for _, col := range seg.Columns {
			fmt.Printf("         %-12s %7d B  range [%d, %d]\n", col.Name, col.Size, col.Min, col.Max)
		}
	}

	// Aggregate per-column sizes across segments: each column's share of
	// the payload.
	if len(info.Segments) == 0 {
		return nil
	}
	fmt.Printf("\ncolumn totals:\n")
	for c, col := range info.Segments[0].Columns {
		total := 0
		for _, seg := range info.Segments {
			total += seg.Columns[c].Size
		}
		pct := 0.0
		if info.PayloadLen > 0 {
			pct = 100 * float64(total) / float64(info.PayloadLen)
		}
		fmt.Printf("  %-12s %9d B  %6.2f%%\n", col.Name, total, pct)
	}
	return nil
}
