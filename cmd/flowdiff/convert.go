package main

import (
	"context"
	"flag"
	"fmt"
	"net/netip"
	"os"
	"strings"

	"flowdiff/internal/flowlog"
	"flowdiff/internal/flowlog/colseg"
)

// loadLog reads a log file in either serialization (FDC1 or JSON; see
// colseg.ReadAnyInto).
func loadLog(path string) (*flowlog.Log, error) {
	return loadLogFiltered(path, colseg.Filter{})
}

// loadLogFiltered is loadLog restricted to the filter's events.
func loadLogFiltered(path string, filter colseg.Filter) (*flowlog.Log, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return colseg.ReadAnyInto(context.Background(), f, colseg.ReaderOptions{Filter: filter}, nil)
}

// runConvert implements the convert subcommand: re-serialize a log
// between the JSON and FDC1 (segmented columnar) formats. The input
// format is auto-detected. The -from/-to-time/-hosts flags carve a
// slice out of the input; on FDC1 input the slice is read query-aware —
// segments outside the window or host set are pruned from the on-disk
// index without decoding their payload.
func runConvert(args []string) error {
	fs := flag.NewFlagSet("flowdiff convert", flag.ExitOnError)
	var (
		in         = fs.String("in", "", "input log (JSON or FDC1; format auto-detected)")
		out        = fs.String("out", "", "output path")
		to         = fs.String("to", "columnar", "output format: columnar | json")
		segDur     = fs.Duration("segment", 0, "columnar segment time range (default 30s)")
		segMaxEvts = fs.Int("segment-events", 0, "columnar per-segment event cap (default 65536)")
		fromFlag   = fs.Duration("from", 0, "keep only events at or after this offset (with -to-time)")
		toFlag     = fs.Duration("to-time", 0, "keep only events before this offset (with -from; must be later)")
		hostsFlag  = fs.String("hosts", "", "comma-separated host addresses: keep only flows touching one of them")
	)
	// ExitOnError: Parse never returns a non-nil error to us.
	_ = fs.Parse(args)
	if *in == "" || *out == "" {
		return fmt.Errorf("convert: both -in and -out are required")
	}

	// colseg.Filter's time range is active only when To > From: a lone
	// -from or an empty range would silently convert the whole log.
	var fromSet, toSet bool
	fs.Visit(func(f *flag.Flag) { fromSet, toSet = fromSet || f.Name == "from", toSet || f.Name == "to-time" })
	if (fromSet || toSet) && (!toSet || *toFlag <= *fromFlag) {
		return fmt.Errorf("convert: -to-time (%v) must be set and later than -from (%v)", *toFlag, *fromFlag)
	}
	filter := colseg.Filter{From: *fromFlag, To: *toFlag}
	if *hostsFlag != "" {
		for _, s := range strings.Split(*hostsFlag, ",") {
			a, err := netip.ParseAddr(strings.TrimSpace(s))
			if err != nil {
				return fmt.Errorf("convert: -hosts: %w", err)
			}
			filter.Hosts = append(filter.Hosts, a)
		}
	}

	log, err := loadLogFiltered(*in, filter)
	if err != nil {
		return fmt.Errorf("convert: loading %s: %w", *in, err)
	}

	f, err := os.Create(*out)
	if err != nil {
		return fmt.Errorf("convert: %w", err)
	}
	switch *to {
	case "columnar":
		err = colseg.Write(f, log, colseg.WriterOptions{
			SegmentDuration:  *segDur,
			MaxSegmentEvents: *segMaxEvts,
		})
	case "json":
		err = log.WriteJSON(f)
	default:
		err = fmt.Errorf("unknown output format %q (want columnar or json)", *to)
	}
	if err != nil {
		// Best-effort cleanup of the partial output; the write error is
		// what the user needs to see.
		_ = f.Close()
		_ = os.Remove(*out)
		return fmt.Errorf("convert: writing %s: %w", *out, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("convert: closing %s: %w", *out, err)
	}
	fmt.Fprintf(os.Stderr, "flowdiff: converted %d events (%s) to %s %s\n",
		len(log.Events), *in, *to, *out)
	return nil
}
