package colseg

import (
	"bytes"
	"context"
	"net/netip"
	"reflect"
	"testing"
	"time"
)

// TestReadAnyFormats is the one table over the format front door: each
// serialization is recognized by its magic and decodes to the same log,
// a filter selects the same events (and bounds) whatever the format,
// and input too short to carry a magic falls through to the JSON
// decoder's error instead of panicking or succeeding.
func TestReadAnyFormats(t *testing.T) {
	l := testLog(2*time.Minute, 400)
	var js, bin bytes.Buffer
	if err := l.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	if err := l.WriteBinary(&bin); err != nil {
		t.Fatal(err)
	}
	filter := Filter{From: 30 * time.Second, To: 80 * time.Second, Hosts: []netip.Addr{testKey(1, 1, 0).Src}}
	wantFiltered, err := ReadAny(context.Background(), bytes.NewReader(encode(t, l, WriterOptions{})), ReaderOptions{Filter: filter})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(wantFiltered.Events); n == 0 || n == len(l.Events) {
		t.Fatalf("filter kept %d of %d events; the filtered comparison would be vacuous", n, len(l.Events))
	}

	cases := []struct {
		name   string
		raw    []byte
		format Format
		ok     bool
	}{
		{"columnar", encode(t, l, WriterOptions{}), FormatColumnar, true},
		{"binary", bin.Bytes(), FormatBinary, true},
		{"json", js.Bytes(), FormatJSON, true},
		{"empty", nil, FormatJSON, false},
		{"short", []byte("FDC"), FormatJSON, false},
		{"magic only", []byte("FDC1"), FormatColumnar, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got, _ := Sniff(bytes.NewReader(tc.raw)); got != tc.format {
				t.Errorf("Sniff = %v, want %v", got, tc.format)
			}
			got, err := ReadAny(context.Background(), bytes.NewReader(tc.raw), ReaderOptions{})
			if !tc.ok {
				if err == nil {
					t.Fatalf("decoded %d events from malformed input, want an error", len(got.Events))
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, l) {
				t.Errorf("decoded log differs: %d events, want %d", len(got.Events), len(l.Events))
			}
			filtered, err := ReadAny(context.Background(), bytes.NewReader(tc.raw), ReaderOptions{Filter: filter})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(filtered, wantFiltered) {
				t.Errorf("filtered read differs from the columnar one: %d events [%v,%v], want %d [%v,%v]",
					len(filtered.Events), filtered.Start, filtered.End, len(wantFiltered.Events), wantFiltered.Start, wantFiltered.End)
			}
		})
	}
}
