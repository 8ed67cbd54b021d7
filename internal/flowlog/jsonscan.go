package flowlog

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/netip"
	"strconv"
	"sync"
	"time"
	"unicode/utf16"
	"unicode/utf8"
)

// The JSON decoder is a scanner for the one shape WriteJSON emits (Log →
// events[] → Event → flow). It accepts exactly what encoding/json
// accepted for a Log — DESIGN.md lists the grammar, FuzzReadJSON holds
// it to the reflection decoder — and differs in speed and error text.
// Like encoding/json it validates every byte up to the end of the
// top-level value, so it may stop at the first error, syntax or type.

const (
	// maxJSONDepth is encoding/json's nesting limit; the log is level 1.
	maxJSONDepth = 10000
	// maxPooledJSONBody bounds what a pooled scanner keeps: a larger
	// buffer goes back to the collector, so a CLI read of a GiB capture
	// pins nothing.
	maxPooledJSONBody = 4 << 20
	// jsonBytesPerEvent sizes Events from the body length, at one Event
	// (144 bytes in memory) per 144 bytes of body: WriteJSON spends
	// 150–200 on one, so the slice runs a third over at most and never
	// outweighs the body; denser hand-written events grow it by append.
	jsonBytesPerEvent = 144
)

// Field IDs: the members of Log, Event and FlowKey, each struct's in
// the order WriteJSON emits them. object decodes a struct as the ID
// range [lo, hi) its fields take.
const (
	fStart = iota
	fEnd
	fEvents
	fTime
	fType
	fSwitch
	fDPID
	fFlow
	fInPort
	fOutPort
	fBytes
	fPackets
	fFlowDuration
	fReason
	fProto
	fSrc
	fDst
	fSrcPort
	fDstPort
	numFields

	unknownField = -1 // a key no field of the object has
	endOfObject  = -2
)

// fieldKeys holds each field's key as WriteJSON writes it: the quoted
// name its struct tag gives, then the colon.
var fieldKeys = [numFields]string{
	fStart: `"start":`, fEnd: `"end":`, fEvents: `"events":`,
	fTime: `"t":`, fType: `"type":`, fSwitch: `"switch":`, fDPID: `"dpid":`, fFlow: `"flow":`, fInPort: `"inPort":`,
	fOutPort: `"outPort":`, fBytes: `"bytes":`, fPackets: `"packets":`, fFlowDuration: `"flowDuration":`, fReason: `"reason":`,
	fProto: `"proto":`, fSrc: `"src":`, fDst: `"dst":`, fSrcPort: `"srcPort":`, fDstPort: `"dstPort":`,
}

// fieldIndex resolves an object key against the names in keys as
// encoding/json does — the exact name, else the first name equal under
// Unicode case folding — or returns -1.
func fieldIndex(keys []string, key []byte) int {
	for i, k := range keys {
		if string(key) == k[1:len(k)-2] {
			return i
		}
	}
	for i, k := range keys {
		if bytes.EqualFold(key, []byte(k[1:len(k)-2])) {
			return i
		}
	}
	return -1
}

// jsonScanner decodes one body. Nothing it returns aliases buf or
// scratch: numbers and addresses are parsed in place, Switch names are
// interned through names.
type jsonScanner struct {
	body    bytes.Buffer // pooled; buf is its contents
	buf     []byte
	pos     int
	scratch []byte            // the last string that needed unquoting
	names   map[string]string // Switch names seen in this decode
	dst     []Event           // the caller's storage for the events
	touched int               // how many slots of the events this decode wrote (see events)
}

var jsonScanners = sync.Pool{New: func() any { return &jsonScanner{names: make(map[string]string)} }}

// ReadJSON deserializes a log written by WriteJSON. It reads r to EOF
// and decodes the first JSON value in it. The events decode onto dst, a
// recycled batch passed as dst..., growing it when short (with none,
// the decode allocates); what dst held is never read. Either way the
// returned Events are the caller's to reuse.
func ReadJSON(r io.Reader, dst ...Event) (*Log, error) {
	s := jsonScanners.Get().(*jsonScanner)
	defer s.release()
	s.body.Reset()
	if _, err := s.body.ReadFrom(r); err != nil {
		return nil, fmt.Errorf("flowlog: reading log: %w", err)
	}
	s.buf, s.pos, s.dst = s.body.Bytes(), 0, dst
	l := new(Log)
	if err := s.log(l); err != nil {
		return nil, fmt.Errorf("flowlog: decoding log: %w", err)
	}
	return l, nil
}

func (s *jsonScanner) release() {
	if s.body.Cap() > maxPooledJSONBody {
		s.body = bytes.Buffer{}
	}
	if cap(s.scratch) > maxPooledJSONBody {
		s.scratch = nil
	}
	s.buf, s.dst = nil, nil
	if len(s.names) > 1024 {
		s.names = make(map[string]string) // a cleared map keeps its buckets
	}
	clear(s.names)
	jsonScanners.Put(s)
}

// errorf reports a value the grammar allows but its field does not.
func (s *jsonScanner) errorf(off int, format string, args ...any) error {
	return fmt.Errorf("offset %d: %s", off, fmt.Sprintf(format, args...))
}

// expected reports the byte at pos as a syntax error, or the end of the
// body as a truncation.
func (s *jsonScanner) expected(what string) error {
	if s.pos >= len(s.buf) {
		return fmt.Errorf("offset %d: expected %s: %w", len(s.buf), what, io.ErrUnexpectedEOF)
	}
	return s.errorf(s.pos, "expected %s, found %q", what, s.buf[s.pos])
}

// peek returns the byte at pos, or 0 — which matches nothing the
// grammar names — at the end of the body.
func (s *jsonScanner) peek() byte {
	if s.pos < len(s.buf) {
		return s.buf[s.pos]
	}
	return 0
}

func (s *jsonScanner) space() {
	for c := s.peek(); c <= ' ' && (c == ' ' || c == '\n' || c == '\t' || c == '\r'); c = s.peek() {
		s.pos++
	}
}

// consume steps over each byte of word in turn.
func (s *jsonScanner) consume(word, what string) error {
	for i := 0; i < len(word); i++ {
		if s.peek() != word[i] {
			return s.expected(what)
		}
		s.pos++
	}
	return nil
}

// next advances to the next member of an object or element of an array
// (closing at end) whose opening byte (first) or previous value has
// just been consumed, and reports whether there is one.
func (s *jsonScanner) next(first bool, end byte) (bool, error) {
	s.space()
	c := s.peek()
	if c == end {
		s.pos++
		return false, nil
	}
	if !first {
		if c != ',' {
			return false, s.expected("',' or the closing '" + string(end) + "'")
		}
		s.pos++
		s.space()
	}
	return true, nil
}

// log decodes the top-level value, after any space at pos, into l: the
// log object, or null, which leaves l as it was.
func (s *jsonScanner) log(l *Log) error {
	if s.space(); s.peek() == 'n' {
		return s.consume("null", "null")
	}
	return s.object(l, nil, fStart, fTime, 1)
}

// member advances to the next member of an object whose opening brace
// (first) or previous value has just been consumed, and returns its
// field among the IDs [lo, hi), unknownField, or endOfObject, with pos
// at its value. WriteJSON writes a struct's fields in order, with no
// space and only empty omitempty ones left out, so the separator and
// key are first matched byte for byte against each field's from hint
// on; only when none matches is the key unquoted and resolved by name.
func (s *jsonScanner) member(lo, hi, hint int, first bool) (int, error) {
	at := s.pos
	if !first && at < len(s.buf) && s.buf[at] == ',' {
		at++
	}
	if rest := s.buf[at:]; first || at > s.pos {
		for f := hint; f < hi; f++ {
			if k := fieldKeys[f]; len(rest) >= len(k) && string(rest[:len(k)]) == k {
				s.pos = at + len(k)
				s.space()
				return f, nil
			}
		}
	}
	more, err := s.next(first, '}')
	if err != nil || !more {
		return endOfObject, err
	}
	key, err := s.str("an object key") // valid until the next str
	if err != nil {
		return endOfObject, err
	}
	f := fieldIndex(fieldKeys[lo:hi], key)
	s.space()
	if err := s.consume(":", "':' after an object key"); err != nil {
		return endOfObject, err
	}
	s.space()
	if f < 0 {
		return unknownField, nil
	}
	return lo + f, nil
}

// object decodes an object at the given nesting level into the fields
// [lo, hi) of l or e, each value straight through its field's parser;
// an unknown member, and every member of an object with no fields
// (lo == hi), is validated and dropped. As in encoding/json, null
// leaves a field as it was — except that it empties the events and is
// no event type.
func (s *jsonScanner) object(l *Log, e *Event, lo, hi, level int) error {
	if err := s.consume("{", "'{'"); err != nil {
		return err
	}
	for first, hint := true, lo; ; first = false {
		f, err := s.member(lo, hi, hint, first)
		if err != nil || f == endOfObject {
			return err
		}
		if f >= 0 {
			hint = f + 1
		}
		if f == unknownField || s.peek() == 'n' && f != fEvents && f != fType {
			f = unknownField // null leaves a field as it was
		}
		switch f {
		case unknownField:
			err = s.skip(level)
		case fStart:
			err = s.duration(&l.Start)
		case fEnd:
			err = s.duration(&l.End)
		case fEvents:
			err = s.events(&l.Events)
		case fTime:
			err = s.duration(&e.Time)
		case fType:
			err = s.eventType(&e.Type)
		case fSwitch:
			err = s.switchName(&e.Switch)
		case fDPID:
			err = uintField(s, &e.DPID)
		case fFlow:
			err = s.object(nil, e, fProto, numFields, level+1)
		case fInPort:
			err = uintField(s, &e.InPort)
		case fOutPort:
			err = uintField(s, &e.OutPort)
		case fBytes:
			err = uintField(s, &e.Bytes)
		case fPackets:
			err = uintField(s, &e.Packets)
		case fFlowDuration:
			err = s.duration(&e.FlowDuration)
		case fReason:
			err = uintField(s, &e.Reason)
		case fProto:
			err = uintField(s, &e.Flow.Proto)
		case fSrc:
			err = s.addr(&e.Flow.Src)
		case fDst:
			err = s.addr(&e.Flow.Dst)
		case fSrcPort:
			err = uintField(s, &e.Flow.SrcPort)
		case fDstPort:
			err = uintField(s, &e.Flow.DstPort)
		}
		if err != nil {
			return err
		}
	}
}

// events decodes the events array over what an earlier "events" member
// left, as encoding/json does: element i is decoded into the i-th event
// already there — past the length too, up to the capacity — without
// zeroing it, and the array's own length is the final one. With nothing
// to decode over (no earlier array, or null or [] after it) the array
// starts on the caller's dst, whose slots count as unwritten: each is
// zeroed the first time it is reached. null makes the events nil.
func (s *jsonScanner) events(dst *[]Event) error {
	if s.peek() == 'n' {
		*dst = nil
		return s.consume("null", "null")
	}
	if err := s.consume("[", "'[' opening the events array"); err != nil {
		return err
	}
	ev, n := *dst, 0
	if cap(ev) == 0 {
		ev, s.touched = s.dst[:0], 0
		if cap(ev) == 0 {
			ev = make([]Event, 0, (len(s.buf)-s.pos)/jsonBytesPerEvent+1)
		}
	}
	for first := true; ; first, n = false, n+1 {
		more, err := s.next(first, ']')
		if err != nil {
			return err
		}
		if !more {
			break
		}
		if n == len(ev) {
			if n < s.touched {
				ev = ev[:n+1] // an earlier array left this event
			} else {
				ev, s.touched = append(ev, Event{}), n+1 // zeroed on first touch
			}
		}
		if s.peek() == 'n' {
			err = s.consume("null", "null")
		} else {
			err = s.object(nil, &ev[n], fTime, fProto, 3)
		}
		if err != nil {
			return err
		}
	}
	if *dst = ev[:n]; n == 0 {
		*dst = []Event{}
	}
	return nil
}

// duration parses an int64 field, the only kind that takes a sign.
func (s *jsonScanner) duration(d *time.Duration) error {
	neg, limit := s.peek() == '-', uint64(math.MaxInt64)
	if neg {
		s.pos++
		limit++
	}
	n, err := s.unsigned(limit)
	if *d = time.Duration(n); neg {
		*d = -*d
	}
	return err
}

// uintField parses an unsigned field in the range of its width.
func uintField[T uint8 | uint16 | uint64](s *jsonScanner, p *T) error {
	n, err := s.unsigned(uint64(^T(0)))
	*p = T(n)
	return err
}

// eventType parses a message name; null, which every other field
// takes, is an error.
func (s *jsonScanner) eventType(t *EventType) error {
	start := s.pos
	if s.peek() == 'n' {
		return s.errorf(start, "null event type")
	}
	b, err := s.str("a string")
	if err != nil {
		return err
	}
	et, ok := parseEventType(b)
	if !ok {
		return s.errorf(start, "unknown event type %q", b)
	}
	*t = et
	return nil
}

// switchName reads a Switch name: one copy of each name per decode.
func (s *jsonScanner) switchName(p *string) error {
	b, err := s.str("a string")
	if err != nil {
		return err
	}
	name, ok := s.names[string(b)]
	if !ok {
		name = string(b)
		s.names[name] = name
	}
	*p = name
	return nil
}

// addr parses an address string: "" is the zero Addr, a dotted quad is
// parsed where it lies (it needs no unquoting), and anything else goes
// to netip.ParseAddr.
func (s *jsonScanner) addr(a *netip.Addr) error {
	start := s.pos
	if s.peek() == '"' {
		if v4, n := ipv4Prefix(s.buf[start+1:]); n > 0 && start+1+n < len(s.buf) && s.buf[start+1+n] == '"' {
			*a, s.pos = v4, start+n+2
			return nil
		}
	}
	b, err := s.str("a string")
	if err != nil {
		return err
	}
	if len(b) == 0 {
		*a = netip.Addr{}
	} else if *a, err = netip.ParseAddr(string(b)); err != nil {
		return s.errorf(start, "%v", err)
	}
	return nil
}

// skip validates a value and drops it; level is the nesting of the
// object or array that holds it.
func (s *jsonScanner) skip(level int) error {
	c := s.peek()
	if (c == '{' || c == '[') && level >= maxJSONDepth {
		return s.errorf(s.pos, "nesting deeper than %d", maxJSONDepth)
	}
	switch {
	case c == 'n':
		return s.consume("null", "null")
	case c == '"':
		_, err := s.str("a string")
		return err
	case c == 't':
		return s.consume("true", "true")
	case c == 'f':
		return s.consume("false", "false")
	case c == '{':
		return s.object(nil, nil, 0, 0, level+1)
	case c == '[':
		s.pos++
		for first := true; ; first = false {
			more, err := s.next(first, ']')
			if err == nil && more {
				err = s.skip(level + 1)
			}
			if err != nil || !more {
				return err
			}
		}
	case c != '-' && c-'0' > 9:
		return s.expected("a value")
	}
	// A number: -? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?
	digits := func() bool {
		start := s.pos
		for s.peek()-'0' <= 9 {
			s.pos++
		}
		return s.pos > start
	}
	if c == '-' {
		s.pos++
	}
	ok := s.peek() == '0'
	if ok {
		s.pos++
	} else {
		ok = digits()
	}
	if ok && s.peek() == '.' {
		s.pos++
		ok = digits()
	}
	if ok && s.peek()|0x20 == 'e' {
		if s.pos++; s.peek() == '+' || s.peek() == '-' {
			s.pos++
		}
		ok = digits()
	}
	if !ok {
		return s.expected("a digit")
	}
	return nil
}

// unsigned consumes a number that must be an integer in [0, limit]: the
// one parser behind every integer field, whatever its width.
func (s *jsonScanner) unsigned(limit uint64) (uint64, error) {
	b, start := s.buf, s.pos
	i, n := start, uint64(0)
	for ; i < len(b) && b[i]-'0' <= 9; i++ {
		d := uint64(b[i] - '0')
		// Nineteen digits cannot overflow; from the twentieth on, check.
		if i-start >= 19 && n > (math.MaxUint64-d)/10 {
			return 0, s.errorf(start, "integer out of range for its field")
		}
		n = n*10 + d
	}
	s.pos = i
	switch {
	case i == start:
		return 0, s.expected("a digit")
	case n > limit:
		return 0, s.errorf(start, "integer out of range for its field")
	case b[start] == '0' && i-start > 1:
		return 0, s.errorf(start, "integer with a leading zero")
	case i < len(b) && (b[i] == '.' || b[i] == 'e' || b[i] == 'E'):
		return 0, s.errorf(start, "fraction or exponent in an integer field")
	}
	return n, nil
}

// ipv4Prefix parses the dotted quad netip.ParseAddr would accept —
// four decimal octets, no leading zeros — at the start of b, and
// returns it with its length in b, or a length of 0 where b starts with
// none.
func ipv4Prefix(b []byte) (netip.Addr, int) {
	var ip [4]byte
	i := 0
	for f := range ip {
		if f > 0 {
			if i >= len(b) || b[i] != '.' {
				return netip.Addr{}, 0
			}
			i++
		}
		start, n := i, 0
		for ; i < len(b) && i-start < 3 && b[i]-'0' <= 9; i++ {
			n = n*10 + int(b[i]-'0')
		}
		if i == start || n > 255 || (b[start] == '0' && i-start > 1) {
			return netip.Addr{}, 0
		}
		ip[f] = byte(n)
	}
	return netip.AddrFrom4(ip), i
}

// str consumes a string and returns its contents unquoted: a subslice
// of buf when nothing needed unquoting, scratch otherwise.
func (s *jsonScanner) str(what string) ([]byte, error) {
	if err := s.consume(`"`, what); err != nil {
		return nil, err
	}
	b, start := s.buf, s.pos
	for i := start; i < len(b); i++ {
		c := b[i]
		if c-' ' < utf8.RuneSelf-' ' && c != '"' && c != '\\' {
			continue // printable ASCII, taken as is
		}
		if c == '"' {
			s.pos = i + 1
			return b[start:i], nil
		}
		return s.unquote(start, i)
	}
	s.pos = len(b)
	return nil, s.expected(`the closing '"'`)
}

// unquote finishes str from the first byte, at i, that cannot be taken
// as is: escapes are decoded, a lone surrogate escape and each byte of
// invalid UTF-8 become U+FFFD, a control character is an error.
func (s *jsonScanner) unquote(start, i int) ([]byte, error) {
	b := s.buf
	out := append(s.scratch[:0], b[start:i]...)
	for ; i < len(b); i++ {
		c := b[i]
		switch {
		case c == '"':
			s.pos, s.scratch = i+1, out
			return out, nil
		case c < ' ':
			s.pos = i
			return nil, s.expected("no control character in a string")
		case c >= utf8.RuneSelf:
			r, size := utf8.DecodeRune(b[i:])
			out = utf8.AppendRune(out, r)
			i += size - 1
			continue
		case c != '\\':
			out = append(out, c)
			continue
		}
		i++
		s.pos = i
		if k := bytes.IndexByte([]byte(`"\/bfnrt`), s.peek()); k >= 0 {
			out = append(out, "\"\\/\b\f\n\r\t"[k])
			continue
		}
		if s.peek() != 'u' {
			return nil, s.expected("a valid escape after '\\'")
		}
		hex := b[i+1 : min(i+5, len(b))]
		v, err := strconv.ParseUint(string(hex), 16, 16)
		if s.pos = i + 1; err != nil || len(hex) < 4 {
			if err == nil {
				s.pos = len(b) // hex as far as it goes: truncated
			}
			return nil, s.expected("four hex digits after \\u")
		}
		r := rune(v)
		if i += 4; utf16.IsSurrogate(r) {
			// A pair needs a second \u escape right here; without one
			// this half is U+FFFD and what follows stands for itself.
			var low uint64
			if i+7 <= len(b) && b[i+1] == '\\' && b[i+2] == 'u' {
				low, _ = strconv.ParseUint(string(b[i+3:i+7]), 16, 16) // 0 is no surrogate either
			}
			if r = utf16.DecodeRune(r, rune(low)); r != utf8.RuneError {
				i += 6
			}
		}
		out = utf8.AppendRune(out, r)
	}
	s.pos = len(b)
	return nil, s.expected(`the closing '"'`)
}
