package main

import (
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"flowdiff/internal/flowlog"
)

// convertLog exercises every field the serializations must carry,
// including the awkward ones: zero netip.Addr flow endpoints (PortStatus
// events) and empty switch names.
func convertLog() *flowlog.Log {
	l := flowlog.New(0, time.Minute)
	k := flowlog.FlowKey{
		Proto:   6,
		Src:     netip.AddrFrom4([4]byte{10, 0, 1, 1}),
		Dst:     netip.AddrFrom4([4]byte{10, 0, 2, 1}),
		SrcPort: 4242, DstPort: 80,
	}
	l.Append(flowlog.Event{Time: time.Second, Type: flowlog.EventPacketIn, Switch: "tor-1", DPID: 7, Flow: k, InPort: 1})
	l.Append(flowlog.Event{Time: time.Second + time.Millisecond, Type: flowlog.EventFlowMod, Switch: "tor-1", DPID: 7, Flow: k, OutPort: 2})
	// Zero flow key and empty switch name.
	l.Append(flowlog.Event{Time: 2 * time.Second, Type: flowlog.EventPortStatus, Reason: 2, InPort: 5})
	l.Append(flowlog.Event{Time: 30 * time.Second, Type: flowlog.EventFlowRemoved, Switch: "tor-1", DPID: 7, Flow: k,
		Bytes: 123456, Packets: 789, FlowDuration: 28 * time.Second, Reason: 1})
	return l
}

// writeJSONLog writes l as JSON to dir/name and returns the path.
func writeJSONLog(t *testing.T, dir, name string, l *flowlog.Log) string {
	t.Helper()
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestConvertRoundTrip drives the convert subcommand through the full
// format chain — JSON -> FDC1 -> JSON — decoding after each hop and
// requiring the exact original log back every time.
func TestConvertRoundTrip(t *testing.T) {
	want := convertLog()
	dir := t.TempDir()
	jsonPath := writeJSONLog(t, dir, "log.json", want)

	hops := []struct{ in, out, format string }{
		{jsonPath, filepath.Join(dir, "log.fdc"), "columnar"},
		{filepath.Join(dir, "log.fdc"), filepath.Join(dir, "back.json"), "json"},
	}
	for _, hop := range hops {
		if err := runConvert([]string{"-in", hop.in, "-out", hop.out, "-to", hop.format}); err != nil {
			t.Fatalf("convert %s -> %s (%s): %v", hop.in, hop.out, hop.format, err)
		}
		got, err := loadLog(hop.out)
		if err != nil {
			t.Fatalf("loading %s: %v", hop.out, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("after %s -> %s: decoded log differs from the original\ngot  %+v\nwant %+v", hop.in, hop.out, got.Events, want.Events)
		}
	}
}

func TestConvertFlagValidation(t *testing.T) {
	dir := t.TempDir()
	in := writeJSONLog(t, dir, "in.json", convertLog())

	if err := runConvert([]string{"-in", in}); err == nil {
		t.Error("want error when -out is missing")
	}
	out := filepath.Join(dir, "out.x")
	if err := runConvert([]string{"-in", in, "-out", out, "-to", "parquet"}); err == nil {
		t.Error("want error for an unknown output format")
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Error("failed convert left a partial output file behind")
	}
	if err := runConvert([]string{"-in", filepath.Join(dir, "missing.json"), "-out", out}); err == nil {
		t.Error("want error for a missing input")
	}
	// A time range the filter would ignore must fail, not convert the
	// whole log: a lone -from, and -to-time at or before -from.
	for _, args := range [][]string{
		{"-from", "10s"},
		{"-from", "10s", "-to-time", "10s"},
		{"-from", "20s", "-to-time", "10s"},
		{"-to-time", "0s"},
	} {
		err := runConvert(append([]string{"-in", in, "-out", out}, args...))
		if err == nil || !strings.Contains(err.Error(), "-from") || !strings.Contains(err.Error(), "-to-time") {
			t.Errorf("convert %v: err = %v, want an error naming -from and -to-time", args, err)
		}
		if _, err := os.Stat(out); !os.IsNotExist(err) {
			t.Errorf("convert %v left an output file behind", args)
		}
	}
	if err := runConvert([]string{"-in", in, "-out", out, "-to-time", "10s"}); err != nil {
		t.Errorf("a lone -to-time keeps [0, -to-time): %v", err)
	}
}

// TestConvertRejectsIPv6ToColumnar: FDC1 carries IPv4 flows only, so an
// IPv6 flow in a JSON capture fails the columnar write with an error,
// not a panic, and leaves no output file.
func TestConvertRejectsIPv6ToColumnar(t *testing.T) {
	l := convertLog()
	l.Events[0].Flow.Src = netip.MustParseAddr("2001:db8::1")
	dir := t.TempDir()
	in := writeJSONLog(t, dir, "v6.json", l)
	out := filepath.Join(dir, "v6.fdc")
	err := runConvert([]string{"-in", in, "-out", out, "-to", "columnar"})
	if err == nil || !strings.Contains(err.Error(), "IPv4") {
		t.Fatalf("err = %v, want an error saying FDC1 carries IPv4 only", err)
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Error("failed convert left a partial output file behind")
	}
}

// TestRetiredFDL1Rejected: a file in the retired row-binary format
// fails with an error naming FDL1 wherever a log is loaded (-baseline
// and -current go through loadLog) or inspected.
func TestRetiredFDL1Rejected(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "old.fdl")
	// An FDL1 header: magic, start, end, event count.
	if err := os.WriteFile(in, append([]byte("FDL1"), make([]byte, 20)...), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "out.json")
	for name, err := range map[string]error{
		"load":    func() error { _, err := loadLog(in); return err }(),
		"convert": runConvert([]string{"-in", in, "-out", out, "-to", "json"}),
		"inspect": runInspect([]string{in}),
	} {
		if err == nil || !strings.Contains(err.Error(), "FDL1 (row binary) is a retired") {
			t.Errorf("%s: err = %v, want an error naming FDL1 as retired", name, err)
		}
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Error("failed convert left an output file behind")
	}
}

// The convert subcommand's writer options must reach the columnar
// writer: a 1 s segment width over a one-minute log yields a file that
// decodes identically but segments finer.
func TestConvertSegmentFlags(t *testing.T) {
	want := convertLog()
	dir := t.TempDir()
	in := writeJSONLog(t, dir, "in.json", want)

	out := filepath.Join(dir, "out.fdc")
	if err := runConvert([]string{"-in", in, "-out", out, "-to", "columnar", "-segment", "1s", "-segment-events", "2"}); err != nil {
		t.Fatal(err)
	}
	got, err := loadLog(out)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("fine-segmented columnar output decodes differently")
	}
}
