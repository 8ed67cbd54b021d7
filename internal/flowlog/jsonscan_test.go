package flowlog

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/netip"
	"reflect"
	"strings"
	"testing"
	"time"
)

// The reflection decoder ReadJSON replaced, kept as the differential
// oracle. It decodes into mirrors of Log and Event so that the event
// type goes through the old UnmarshalJSON (a json.Unmarshal into a
// string, then a name lookup) and shares no code with the scanner.
type refEventType EventType

func (t *refEventType) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	for et := EventPacketIn; et <= EventPortStatus; et++ {
		if et.String() == s {
			*t = refEventType(et)
			return nil
		}
	}
	return fmt.Errorf("flowlog: unknown event type %q", s)
}

type refEvent struct {
	Time         time.Duration `json:"t"`
	Type         refEventType  `json:"type"`
	Switch       string        `json:"switch"`
	DPID         uint64        `json:"dpid,omitempty"`
	Flow         FlowKey       `json:"flow"`
	InPort       uint16        `json:"inPort,omitempty"`
	OutPort      uint16        `json:"outPort,omitempty"`
	Bytes        uint64        `json:"bytes,omitempty"`
	Packets      uint64        `json:"packets,omitempty"`
	FlowDuration time.Duration `json:"flowDuration,omitempty"`
	Reason       uint8         `json:"reason,omitempty"`
}

type refLog struct {
	Start  time.Duration `json:"start"`
	End    time.Duration `json:"end"`
	Events []refEvent    `json:"events"`
}

func readJSONReference(r io.Reader) (*Log, error) {
	var rl refLog
	if err := json.NewDecoder(r).Decode(&rl); err != nil {
		return nil, fmt.Errorf("flowlog: decoding log: %w", err)
	}
	l := &Log{Start: rl.Start, End: rl.End}
	if rl.Events != nil {
		l.Events = make([]Event, len(rl.Events))
	}
	for i, e := range rl.Events {
		l.Events[i] = Event{
			Time: e.Time, Type: EventType(e.Type), Switch: e.Switch, DPID: e.DPID, Flow: e.Flow,
			InPort: e.InPort, OutPort: e.OutPort, Bytes: e.Bytes, Packets: e.Packets,
			FlowDuration: e.FlowDuration, Reason: e.Reason,
		}
	}
	return l, nil
}

// The oracle is only as good as its mirrors: same fields, same tags.
func TestReferenceMirrorsTheWireStructs(t *testing.T) {
	for _, pair := range [][2]reflect.Type{
		{reflect.TypeOf(Event{}), reflect.TypeOf(refEvent{})},
		{reflect.TypeOf(Log{}), reflect.TypeOf(refLog{})},
	} {
		real, ref := pair[0], pair[1]
		if real.NumField() != ref.NumField() {
			t.Fatalf("%v has %d fields, %v has %d", real, real.NumField(), ref, ref.NumField())
		}
		for i := 0; i < real.NumField(); i++ {
			a, b := real.Field(i), ref.Field(i)
			if a.Name != b.Name || a.Tag != b.Tag || a.Type.Kind() != b.Type.Kind() {
				t.Errorf("%v.%s (%v %q) is mirrored as %s (%v %q)", real, a.Name, a.Type, a.Tag, b.Name, b.Type, b.Tag)
			}
		}
	}
}

// jsonSample is a capture that exercises every field, an escaped and a
// non-ASCII switch name (WriteJSON escapes '<'), and IPv6 addresses.
func jsonSample() *Log {
	l := New(time.Second, time.Minute)
	l.Append(Event{
		Time: 2 * time.Second, Type: EventPacketIn, Switch: "sw1", DPID: 7,
		Flow: key(1, 2, 333, 80), InPort: 4,
	})
	l.Append(Event{
		Time: 3 * time.Second, Type: EventFlowMod, Switch: "tor<3>", DPID: 1 << 63,
		Flow: key(1, 2, 333, 80), OutPort: 65535,
	})
	l.Append(Event{
		Time: 30 * time.Second, Type: EventFlowRemoved, Switch: "sw1", DPID: 7,
		Flow:  FlowKey{Proto: 17, Src: netip.MustParseAddr("2001:db8::1"), Dst: netip.MustParseAddr("fe80::1%eth0"), SrcPort: 53, DstPort: 53},
		Bytes: 9999, Packets: 12, FlowDuration: 28 * time.Second, Reason: 255,
	})
	l.Append(Event{Time: 31 * time.Second, Type: EventPortStatus, Switch: "čore-é", InPort: 9, Reason: 2})
	return l
}

func sampleJSON(tb testing.TB, l *Log) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := l.WriteJSON(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// nested returns n arrays inside each other.
func nested(n int) string { return strings.Repeat("[", n) + strings.Repeat("]", n) }

// jsonGrammarSeeds has at least one input for every clause of the
// accepted grammar (DESIGN.md, "one front door"), accepted or rejected.
func jsonGrammarSeeds(tb testing.TB) []string {
	ev := `{"t":5,"type":"FlowMod","switch":"s","dpid":1,"flow":{"proto":6,"src":"10.0.0.1","dst":"10.0.0.2","srcPort":1,"dstPort":2},"inPort":3,"outPort":4,"bytes":5,"packets":6,"flowDuration":7,"reason":8}`
	inEvent := func(member string) string { return `{"events":[{` + member + `}]}` }
	inFlow := func(member string) string { return inEvent(`"flow":{` + member + `}`) }
	return []string{
		string(sampleJSON(tb, jsonSample())),
		`{"start":1,"end":2,"events":[` + ev + `,` + ev + `]}`,
		// Key order, case folding (ASCII, the Kelvin sign, long s, escaped), "t" and "T".
		`{"events":[{"flow":{"dstPort":2,"srcPort":1,"dst":"10.0.0.2","src":"10.0.0.1","proto":6},"switch":"s","type":"PacketIn","t":5}],"end":2,"start":1}`,
		`{"START":1,"End":2,"EVENTS":[{"T":5,"TYPE":"PacketIn","Switch":"s","DPID":9,"FLOW":{"PROTO":6,"SRC":"10.0.0.1","Dst":"10.0.0.2","srcport":1,"DSTPORT":2},"INPORT":1,"outport":2,"BYTES":3,"pac\u212aets":4,"PACKETS":5,"FLOWDURATION":6,"rea\u017fon":7}]}`,
		"{\"\u017ftart\":1,\"event\u017f\":[{\"\u017fwitch\":\"x\",\"t\\u0054\":1,\"\\u0074\":9}]}",
		// Unknown keys of every shape, known keys with the wrong shape.
		`{"x":{"a":[1,2.5e-3,{"b":null,"c":[]}],"d":"s\n\u00e9","e":true,"f":false,"":-0.0E+1},"events":[{"y":[[],{}],"t":1,"flow":{"z":{"t":1}}}]}`,
		`{"events":{}}`, `{"events":[1]}`, `{"events":["x"]}`, `{"events":[[]]}`, `{"start":"1"}`, `{"start":true}`, `{"start":[]}`,
		inEvent(`"flow":[]`), inEvent(`"flow":"x"`), inEvent(`"switch":1`), inEvent(`"switch":{}`), inEvent(`"t":{}`), inFlow(`"src":1`), inFlow(`"src":{}`), inFlow(`"src":[]`),
		// null in every position.
		`null`, ` null `, "null\n{", `nullx`, `null{`, `nul`, `{"start":null,"end":null,"events":null}`, `{"events":[null,` + ev + `,null]}`,
		inEvent(`"t":null,"switch":null,"dpid":null,"flow":null,"inPort":null,"outPort":null,"bytes":null,"packets":null,"flowDuration":null,"reason":null,"zz":null`),
		inEvent(`"t":4,"switch":"a","t":null,"switch":null`), inEvent(`"type":null`), inEvent(`"TYPE":null`),
		inFlow(`"proto":null,"src":null,"dst":null,"srcPort":null,"dstPort":null`), inFlow(`"src":"10.0.0.1","src":null`),
		// Duplicate keys: last wins, flow merges, events decodes over what was there.
		`{"start":1,"start":2,"events":[` + ev + `],"events":[{"t":9}]}`,
		`{"events":[` + ev + `,` + ev + `,` + ev + `],"events":[{"t":1}],"events":[{"t":2},{"switch":"q"},null,{"dpid":4},{"t":5}]}`,
		`{"events":[` + ev + `],"events":[]}`, `{"events":[` + ev + `],"events":null}`, `{"events":[` + ev + `],"events":[],"events":[{"t":1}]}`,
		`{"events":[` + ev + `],"events":null,"events":[{"t":1},{}]}`, `{"events":[]}`, `{"events":[ ]}`,
		inEvent(`"flow":{"proto":6,"src":"10.0.0.1"},"flow":{"dst":"10.0.0.2"},"flow":{}`),
		// Addresses.
		inFlow(`"src":"","dst":"2001:db8::1"`), inFlow(`"src":"fe80::1%eth0","dst":"::ffff:10.0.0.1"`), inFlow(`"src":"10.0.0.1","src":""`),
		inFlow(`"src":"10.0.0.\u0031"`), inFlow(`"src":"0.0.0.0","dst":"255.255.255.255"`), inFlow(`"src":"10.0.0.01"`), inFlow(`"src":"256.0.0.1"`),
		inFlow(`"src":"1.2.3"`), inFlow(`"src":"1.2.3.4.5"`), inFlow(`"src":"1.2.3.4 "`), inFlow(`"src":"1..3.4"`), inFlow(`"src":"1000.2.3.4"`), inFlow(`"src":"::"`), inFlow(`"src":"x"`),
		// Integers.
		inFlow(`"proto":1.0`), inFlow(`"proto":1e3`), inFlow(`"proto":1E0`), inFlow(`"proto":-1`), inFlow(`"proto":-0`), inFlow(`"proto":255`), inFlow(`"proto":256`),
		inFlow(`"srcPort":65535,"dstPort":65536`), inFlow(`"proto":01`), inFlow(`"proto":00`), inFlow(`"proto":0`), inFlow(`"proto":+1`), inFlow(`"proto":1.`), inFlow(`"proto":.1`),
		inEvent(`"bytes":18446744073709551615`), inEvent(`"bytes":18446744073709551616`), inEvent(`"bytes":28446744073709551615`), inEvent(`"bytes":184467440737095516150`),
		inEvent(`"t":-1,"flowDuration":-0`), inEvent(`"t":9223372036854775807,"flowDuration":-9223372036854775808`), inEvent(`"t":9223372036854775808`),
		inEvent(`"t":-9223372036854775809`), inEvent(`"t":-`), inEvent(`"t":-a`), inEvent(`"t":1.5`), inEvent(`"t":-01`), inEvent(`"t":12x`), inEvent(`"reason":256`),
		// Event types.
		inEvent(`"type":"PacketIn"`), inEvent(`"type":"PortStatus"`), inEvent(`"type":"Packet\u0049n"`), inEvent(`"type":"packetin"`), inEvent(`"type":""`),
		inEvent(`"type":"Bogus"`), inEvent(`"type":1`), inEvent(`"type":{}`), inEvent(`"type":["PacketIn"]`), inEvent(`"type":"FlowMod","type":"FlowRemoved"`),
		// Strings.
		inEvent(`"switch":"\ud83d\ude00 \" \\ \/ \b \f \n \r \t \u00e9 \u0000"`), inEvent(`"switch":"\ud800"`), inEvent(`"switch":"\udc00\ud800"`),
		inEvent(`"switch":"\ud800\u0041"`), inEvent(`"switch":"\ud800\ud800\udc00"`), inEvent(`"switch":"\ud800x"`), inEvent(`"switch":"\uD83D\uDE00"`),
		inEvent("\"switch\":\"\xff\xfe ok \xe2\x82\""), inEvent("\"switch\":\"\xe2\x82\xac \xf0\x9f\x98\x80 \xc0\x80 \xed\xa0\x80\""), inEvent("\"sw\xffitch\":\"x\""),
		inEvent("\"switch\":\"a\tb\""), inEvent("\"switch\":\"a\x00b\""), inEvent(`"switch":"\'"`), inEvent(`"switch":"\x41"`), inEvent(`"switch":"\u12g4"`), inEvent(`"switch":"\u12`),
		inEvent(`"switch":"a","switch":"a","switch":"b"`),
		// Structure, truncation, trailing bytes, other top-level values.
		``, ` `, "\t\r\n", `{`, `{}`, ` { } `, `{} trailing {{{`, `{}]`, `{"start":1}x`, "\ufeff{}", `{,}`, `{"start":1,}`, `{"start" 1}`, `{"start":1 "end":2}`, `{start:1}`,
		`{"x":[1,]}`, `{"x":[,1]}`, `{"x":[1 2]}`, `{"x":tru}`, `{"x":truex}`, `{"x":nul}`, `{"x":-}`, `{"x":1e}`, `{"x":1e+}`, `{"x":0.}`, `{"x":01}`, `{"x":"a`, `{"x":}`,
		`[]`, `[1,2`, `"str"`, `"str`, `12`, `12 `, `true`, `tru`, `}`, `x`,
		// Depth: the log object is level 1, so 9,999 more levels fit.
		`{"x":` + nested(maxJSONDepth-1) + `}`, `{"x":` + nested(maxJSONDepth) + `}`, `{"x":` + nested(maxJSONDepth+1) + `}`,
		inFlow(`"x":` + nested(maxJSONDepth-4)), inFlow(`"x":` + nested(maxJSONDepth-3)),
		`{"x":` + strings.Repeat(`{"a":`, maxJSONDepth-1) + `1` + strings.Repeat(`}`, maxJSONDepth),
		`{"x":` + strings.Repeat(`{"a":`, maxJSONDepth) + `1` + strings.Repeat(`}`, maxJSONDepth+1),
	}
}

// FuzzReadJSON pins the tentpole contract: for any input the scanner
// and the reflection decoder both fail, or both return the same log.
func FuzzReadJSON(f *testing.F) {
	for _, s := range jsonGrammarSeeds(f) {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, gotErr := ReadJSON(bytes.NewReader(data))
		want, wantErr := readJSONReference(bytes.NewReader(data))
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("ReadJSON error %v, encoding/json error %v", gotErr, wantErr)
		}
		if gotErr == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("ReadJSON and encoding/json disagree:\n got %+v\nwant %+v", got, want)
		}
	})
}

// Every field of every wire struct must be reachable under a key that
// only matches after case folding — the tables in jsonscan.go are
// written by hand.
func TestReadJSONFoldsEveryField(t *testing.T) {
	body := strings.ToUpper(string(sampleJSON(t, jsonSample())))
	for _, name := range eventTypeNames[EventPacketIn:] {
		body = strings.ReplaceAll(body, strings.ToUpper(name), name)
	}
	body = strings.ReplaceAll(body, `\U003`, `\u003`)
	got, err := ReadJSON(strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	want := jsonSample()
	for i := range want.Events {
		e := &want.Events[i]
		e.Switch = strings.ToUpper(e.Switch)
		if e.Flow.Dst.Zone() != "" {
			e.Flow.Dst = e.Flow.Dst.WithZone(strings.ToUpper(e.Flow.Dst.Zone()))
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("upper-cased keys:\n got %+v\nwant %+v", got, want)
	}
}

// The returned log must not alias the scanner's pooled memory: decode,
// scribble over the body and scratch buffers, decode something else
// through the same scanner, and the first log still reads the same.
func TestReadJSONOwnsItsEvents(t *testing.T) {
	body := sampleJSON(t, jsonSample())
	s := &jsonScanner{names: make(map[string]string)}
	first := new(Log)
	s.body.Write(body)
	s.buf = s.body.Bytes()
	if err := s.value(first, 0); err != nil {
		t.Fatal(err)
	}
	for _, b := range [][]byte{s.buf[:cap(s.buf)], s.scratch[:cap(s.scratch)]} {
		for i := range b {
			b[i] = 'X'
		}
	}
	other := New(0, time.Second)
	other.Append(Event{Time: 1, Type: EventFlowMod, Switch: "other<&>", Flow: key(9, 9, 9, 9)})
	clear(s.names)
	s.body.Reset()
	s.body.Write(sampleJSON(t, other))
	s.buf, s.pos = s.body.Bytes(), 0
	if err := s.value(new(Log), 0); err != nil {
		t.Fatal(err)
	}
	if want := jsonSample(); !reflect.DeepEqual(first, want) {
		t.Errorf("first log changed after its buffers were reused:\n got %+v\nwant %+v", first, want)
	}
}

// A body above the pooling bound must not stay pinned by the pool.
func TestReadJSONDropsLargeBuffers(t *testing.T) {
	s := &jsonScanner{names: make(map[string]string), scratch: make([]byte, 0, 16)}
	s.body.Grow(maxPooledJSONBody + 1)
	s.release()
	if s.body.Cap() != 0 || s.scratch == nil {
		t.Errorf("after release: body cap %d (want dropped), scratch cap %d (want kept)", s.body.Cap(), cap(s.scratch))
	}
}

func TestReadJSONSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries under -race; the ceiling counts on recycling")
	}
	l := benchLog()
	l.Events = l.Events[:250]
	body := sampleJSON(t, l)
	r := bytes.NewReader(body)
	allocs := testing.AllocsPerRun(50, func() {
		r.Reset(body)
		if _, err := ReadJSON(r); err != nil {
			t.Fatal(err)
		}
	})
	// Measured 3 (the Log, its Events, one Switch name) + 15 %, rounded
	// up; the reflection decoder took 1,529.
	if allocs > 4 {
		t.Errorf("warm 250-event decode: %.0f allocations, want at most 4", allocs)
	}
}

func TestReadJSONTruncated(t *testing.T) {
	body := bytes.TrimSpace(sampleJSON(t, jsonSample()))
	for cut := 0; cut < len(body); cut++ {
		_, err := ReadJSON(bytes.NewReader(body[:cut]))
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut at %d of %d (%q): error %v, want io.ErrUnexpectedEOF", cut, len(body), body[max(0, cut-12):cut], err)
		}
	}
	if _, err := ReadJSON(bytes.NewReader(body)); err != nil {
		t.Fatalf("whole body: %v", err)
	}
}

func TestReadJSONErrorsNameTheOffset(t *testing.T) {
	for _, tc := range []struct{ body, want string }{
		{`{"start":1,"end":x}`, `offset 17: expected a digit, found 'x'`},
		{`{"events":[{"type":"Bogus"}]}`, `offset 19: unknown event type "Bogus"`},
		{`{"events":[{"flow":{"proto":256}}]}`, `offset 28: integer out of range for its field`},
		{`{"events":[{"t":1}`, `offset 18: expected ',' or the closing ']': unexpected EOF`},
	} {
		_, err := ReadJSON(strings.NewReader(tc.body))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want it to contain %q", tc.body, err, tc.want)
		}
	}
}

// errReader fails after its data, the way a dropped connection does.
type errReader struct {
	data []byte
	err  error
}

func (r *errReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, r.err
	}
	n := copy(p, r.data)
	r.data = r.data[n:]
	return n, nil
}

func TestReadJSONReturnsReadErrors(t *testing.T) {
	boom := errors.New("connection reset")
	if _, err := ReadJSON(&errReader{data: []byte(`{"start":1`), err: boom}); !errors.Is(err, boom) {
		t.Errorf("error %v, want the reader's", err)
	}
}

// benchRead times read over benchLog() as write serializes it.
func benchRead(b *testing.B, write func(*Log, io.Writer) error, read func(io.Reader) (*Log, error)) {
	var buf bytes.Buffer
	if err := write(benchLog(), &buf); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := read(bytes.NewReader(buf.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadJSON(b *testing.B) { benchRead(b, (*Log).WriteJSON, ReadJSON) }

// BenchmarkReadJSONReference is the decoder ReadJSON replaced, on the
// same body.
func BenchmarkReadJSONReference(b *testing.B) { benchRead(b, (*Log).WriteJSON, readJSONReference) }

func BenchmarkReadBinary(b *testing.B) { benchRead(b, (*Log).WriteBinary, ReadBinary) }
