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

// Field names; value pairs each table with the addresses its members
// decode to, in the same order.
var (
	logFields   = []string{"start", "end", "events"}
	eventFields = []string{"t", "type", "switch", "dpid", "flow", "inPort", "outPort", "bytes", "packets", "flowDuration", "reason"}
	flowFields  = []string{"proto", "src", "dst", "srcPort", "dstPort"}
)

// fieldIndex resolves an object key as encoding/json does — the exact
// name, else the first name equal under Unicode case folding — or
// returns -1.
func fieldIndex(names []string, key []byte) int {
	for i, n := range names {
		if string(key) == n {
			return i
		}
	}
	for i, n := range names {
		if bytes.EqualFold(key, []byte(n)) {
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
}

var jsonScanners = sync.Pool{New: func() any { return &jsonScanner{names: make(map[string]string)} }}

// ReadJSON deserializes a log written by WriteJSON. It reads r to EOF
// and decodes the first JSON value in it.
func ReadJSON(r io.Reader) (*Log, error) {
	s := jsonScanners.Get().(*jsonScanner)
	defer s.release()
	s.body.Reset()
	if _, err := s.body.ReadFrom(r); err != nil {
		return nil, fmt.Errorf("flowlog: reading log: %w", err)
	}
	s.buf, s.pos = s.body.Bytes(), 0
	l := new(Log)
	s.space()
	if err := s.value(l, 0); err != nil {
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
	s.buf = nil
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

// object decodes an object at the given nesting level: a member named
// in names (see fieldIndex) into the value dst holds at its index, any
// other validated and dropped.
func (s *jsonScanner) object(names []string, dst []any, level int) error {
	if err := s.consume("{", "'{'"); err != nil {
		return err
	}
	for first := true; ; first = false {
		more, err := s.next(first, '}')
		if err != nil || !more {
			return err
		}
		key, err := s.str("an object key") // valid until the next str
		if err != nil {
			return err
		}
		field := fieldIndex(names, key)
		s.space()
		if err := s.consume(":", "':' after an object key"); err != nil {
			return err
		}
		s.space()
		if field < 0 {
			err = s.value(nil, level)
		} else {
			err = s.value(dst[field], level)
		}
		if err != nil {
			return err
		}
	}
}

// value decodes the value at pos, held by an object or array at the
// given nesting level, into what dst points to; a nil dst only
// validates it. As in encoding/json, null leaves dst as it was — except
// that it empties the events and is no event type.
func (s *jsonScanner) value(dst any, level int) error {
	start := s.pos
	if s.peek() == 'n' {
		switch d := dst.(type) {
		case *EventType:
			return s.errorf(start, "null event type")
		case *[]Event:
			*d = nil
		}
		return s.consume("null", "null")
	}
	switch d := dst.(type) {
	case *Log:
		return s.object(logFields, []any{&d.Start, &d.End, &d.Events}, 1)
	case *[]Event:
		return s.events(d)
	case *Event:
		return s.object(eventFields, []any{&d.Time, &d.Type, &d.Switch, &d.DPID, &d.Flow,
			&d.InPort, &d.OutPort, &d.Bytes, &d.Packets, &d.FlowDuration, &d.Reason}, 3)
	case *FlowKey:
		return s.object(flowFields, []any{&d.Proto, &d.Src, &d.Dst, &d.SrcPort, &d.DstPort}, 4)
	case *uint8:
		n, err := s.unsigned(math.MaxUint8)
		*d = uint8(n)
		return err
	case *uint16:
		n, err := s.unsigned(math.MaxUint16)
		*d = uint16(n)
		return err
	case *uint64:
		n, err := s.unsigned(math.MaxUint64)
		*d = n
		return err
	case *time.Duration: // the int64 fields; only they take a sign
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
	// The rest are strings, or anything at all under an unknown key.
	if dst == nil && s.peek() != '"' {
		return s.skip(level)
	}
	b, err := s.str("a string")
	if err != nil {
		return err
	}
	switch d := dst.(type) {
	case *string: // Switch: one copy of each name per decode
		name, ok := s.names[string(b)]
		if !ok {
			name = string(b)
			s.names[name] = name
		}
		*d = name
	case *EventType:
		t, ok := parseEventType(b)
		if !ok {
			return s.errorf(start, "unknown event type %q", b)
		}
		*d = t
	case *netip.Addr:
		if a, ok := parseIPv4(b); ok || len(b) == 0 {
			*d = a
		} else if *d, err = netip.ParseAddr(string(b)); err != nil {
			return s.errorf(start, "%v", err)
		}
	}
	return nil
}

// events decodes the events array over what an earlier "events" member
// left, as encoding/json does: element i is decoded into the i-th event
// already there — past the length too, up to the capacity — without
// zeroing it, and the array's own length is the final one.
func (s *jsonScanner) events(dst *[]Event) error {
	if err := s.consume("[", "'[' opening the events array"); err != nil {
		return err
	}
	ev, n := *dst, 0
	for first := true; ; first, n = false, n+1 {
		more, err := s.next(first, ']')
		if err != nil {
			return err
		}
		if !more {
			break
		}
		if n == len(ev) {
			if ev == nil {
				ev = make([]Event, 0, (len(s.buf)-s.pos)/jsonBytesPerEvent+1)
			}
			if n < cap(ev) {
				ev = ev[:n+1]
			} else {
				ev = append(ev, Event{})
			}
		}
		if err := s.value(&ev[n], 2); err != nil {
			return err
		}
	}
	if *dst = ev[:n]; n == 0 {
		*dst = []Event{}
	}
	return nil
}

// skip validates a value that is not a string and drops it; level is
// the nesting of the object or array that holds it.
func (s *jsonScanner) skip(level int) error {
	c := s.peek()
	if (c == '{' || c == '[') && level >= maxJSONDepth {
		return s.errorf(s.pos, "nesting deeper than %d", maxJSONDepth)
	}
	switch {
	case c == 't':
		return s.consume("true", "true")
	case c == 'f':
		return s.consume("false", "false")
	case c == '{':
		return s.object(nil, nil, level+1)
	case c == '[':
		s.pos++
		for first := true; ; first = false {
			more, err := s.next(first, ']')
			if err == nil && more {
				err = s.value(nil, level+1)
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

// parseIPv4 parses the dotted quad netip.ParseAddr would accept — four
// decimal octets, no leading zeros — and declines anything else.
func parseIPv4(b []byte) (netip.Addr, bool) {
	var ip [4]byte
	i := 0
	for f := range ip {
		if f > 0 {
			if i >= len(b) || b[i] != '.' {
				return netip.Addr{}, false
			}
			i++
		}
		start, n := i, 0
		for ; i < len(b) && i-start < 3 && b[i]-'0' <= 9; i++ {
			n = n*10 + int(b[i]-'0')
		}
		if i == start || n > 255 || (b[start] == '0' && i-start > 1) {
			return netip.Addr{}, false
		}
		ip[f] = byte(n)
	}
	if i != len(b) {
		return netip.Addr{}, false
	}
	return netip.AddrFrom4(ip), true
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
