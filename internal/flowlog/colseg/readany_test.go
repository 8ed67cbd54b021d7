package colseg

import (
	"bytes"
	"context"
	"net/netip"
	"reflect"
	"strings"
	"testing"
	"time"

	"flowdiff/internal/flowlog"
)

// eachLeaf calls f on every leaf field of v, a struct, by dotted name:
// netip.Addr counts as one leaf.
func eachLeaf(v reflect.Value, prefix string, f func(name string, leaf reflect.Value)) {
	for i := 0; i < v.NumField(); i++ {
		fv, name := v.Field(i), prefix+v.Type().Field(i).Name
		if fv.Kind() == reflect.Struct && fv.Type() != reflect.TypeOf(netip.Addr{}) {
			eachLeaf(fv, name+".", f)
			continue
		}
		f(name, fv)
	}
}

// garbageEvent sets every leaf of an Event to a non-zero value: what a
// recycled batch holds before a decode overwrites it.
func garbageEvent(t *testing.T) flowlog.Event {
	var e flowlog.Event
	eachLeaf(reflect.ValueOf(&e).Elem(), "", func(name string, leaf reflect.Value) {
		switch leaf.Kind() {
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			leaf.SetInt(77)
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			leaf.SetUint(77)
		case reflect.String:
			leaf.SetString("stale")
		default:
			if leaf.Type() != reflect.TypeOf(netip.Addr{}) {
				t.Fatalf("Event.%s: no garbage for a %s field; teach garbageEvent", name, leaf.Type())
			}
			leaf.Set(reflect.ValueOf(netip.AddrFrom4([4]byte{192, 0, 2, 77})))
		}
	})
	return e
}

// TestEventColumnsCoverEveryField: an all-zero event decoded over a
// garbage one leaves no garbage, so every leaf field of flowlog.Event
// is written by some column. A field added without a column would leak
// a stale value through a recycled ingest batch.
func TestEventColumnsCoverEveryField(t *testing.T) {
	raw := encode(t, &flowlog.Log{Events: []flowlog.Event{{}}}, WriterOptions{})
	got, err := ReadAnyInto(context.Background(), bytes.NewReader(raw), ReaderOptions{}, []flowlog.Event{garbageEvent(t)})
	if err != nil {
		t.Fatal(err)
	}
	eachLeaf(reflect.ValueOf(got.Events[0]), "", func(name string, leaf reflect.Value) {
		if !leaf.IsZero() {
			t.Errorf("Event.%s = %v after decoding a zero event: no column writes it", name, leaf)
		}
	})
}

// TestReadAnyIntoDirtyDestination: decoding FDC1 onto a batch full of
// garbage is DeepEqual to a fresh decode, in the batch's own storage,
// however often the pooled decode state is reused.
func TestReadAnyIntoDirtyDestination(t *testing.T) {
	t.Run("v2", func(t *testing.T) {
		raw := encode(t, testLog(2*time.Minute, 2000), WriterOptions{SegmentDuration: 20 * time.Second})
		want, err := ReadAnyInto(context.Background(), bytes.NewReader(raw), ReaderOptions{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		dst := make([]flowlog.Event, len(want.Events)+17)
		for round := 0; round < 3; round++ {
			for i := range dst {
				dst[i] = garbageEvent(t)
			}
			got, err := ReadAnyInto(context.Background(), bytes.NewReader(raw), ReaderOptions{}, dst)
			if err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
			if &got.Events[0] != &dst[0] {
				t.Fatalf("round %d: decoded into new storage, not onto dst", round)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d: decode onto a dirty batch differs from a fresh decode", round)
			}
		}
	})
}

// TestReadAnyFormats is the one table over the format front door: each
// serialization is recognized by its magic and decodes to the same log,
// a filter selects the same events (and bounds) whatever the format,
// the retired FDL1 fails with an error naming it, and input too short
// to carry a magic falls through to the JSON decoder's error instead of
// panicking or succeeding.
func TestReadAnyFormats(t *testing.T) {
	l := testLog(2*time.Minute, 400)
	var js bytes.Buffer
	if err := l.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	filter := Filter{From: 30 * time.Second, To: 80 * time.Second, Hosts: []netip.Addr{testKey(1, 1, 0).Src}}
	wantFiltered, err := ReadAnyInto(context.Background(), bytes.NewReader(encode(t, l, WriterOptions{})), ReaderOptions{Filter: filter}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(wantFiltered.Events); n == 0 || n == len(l.Events) {
		t.Fatalf("filter kept %d of %d events; the filtered comparison would be vacuous", n, len(l.Events))
	}

	cases := []struct {
		name string
		raw  []byte
		ok   bool
		// errHas, for a failing row, is a substring the error must carry.
		errHas string
	}{
		{"columnar", encode(t, l, WriterOptions{}), true, ""},
		{"json", js.Bytes(), true, ""},
		// An FDL1 header: magic, start, end, event count.
		{"fdl1", append([]byte("FDL1"), make([]byte, 20)...), false, "FDL1 (row binary) is a retired"},
		{"empty", nil, false, ""},
		{"short", []byte("FDC"), false, ""},
		{"magic only", []byte("FDC1"), false, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := ReadAnyInto(context.Background(), bytes.NewReader(tc.raw), ReaderOptions{}, nil)
			if !tc.ok {
				if err == nil {
					t.Fatalf("decoded %d events from malformed input, want an error", len(got.Events))
				}
				if !strings.Contains(err.Error(), tc.errHas) {
					t.Fatalf("err = %v, want it to name %q", err, tc.errHas)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, l) {
				t.Errorf("decoded log differs: %d events, want %d", len(got.Events), len(l.Events))
			}
			filtered, err := ReadAnyInto(context.Background(), bytes.NewReader(tc.raw), ReaderOptions{Filter: filter}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(filtered, wantFiltered) {
				t.Errorf("filtered read differs from the columnar one: %d events [%v,%v], want %d [%v,%v]",
					len(filtered.Events), filtered.Start, filtered.End, len(wantFiltered.Events), wantFiltered.Start, wantFiltered.End)
			}
			// The log's flows are IPv4 (FDC1 carries no other), so a host
			// filter of only IPv6 addresses matches nothing, in either
			// format.
			v6, err := ReadAnyInto(context.Background(), bytes.NewReader(tc.raw), ReaderOptions{Filter: Filter{Hosts: []netip.Addr{netip.IPv6Loopback()}}}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(v6.Events) != 0 {
				t.Errorf("an IPv6-only host filter kept %d of %d events, want 0", len(v6.Events), len(l.Events))
			}
		})
	}
}
