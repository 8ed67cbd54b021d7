package signature

import (
	"errors"
	"io"
	"reflect"
	"testing"
	"time"

	"flowdiff/internal/core/appgroup"
	"flowdiff/internal/flowlog"
)

// sliceSource adapts an in-memory event slice to the EventSource
// interface, serving fixed-size batches like a decoding reader would.
type sliceSource struct {
	events     []flowlog.Event
	start, end time.Duration
	batch      int
	pos        int
}

func (s *sliceSource) Next() ([]flowlog.Event, error) {
	if s.pos >= len(s.events) {
		return nil, io.EOF
	}
	n := s.batch
	if n <= 0 {
		n = 512
	}
	if s.pos+n > len(s.events) {
		n = len(s.events) - s.pos
	}
	b := s.events[s.pos : s.pos+n]
	s.pos += n
	return b, nil
}

func (s *sliceSource) Bounds() (start, end time.Duration) { return s.start, s.end }

func sourceOf(l *flowlog.Log, batch int) *sliceSource {
	return &sliceSource{events: l.Events, start: l.Start, end: l.End, batch: batch}
}

// TestPipelineFromSourceMatchesInMemory pins the modeling pipeline
// against the retained in-memory oracle (pipelineReference: batch
// extraction plus whole-log scans): every product — occurrences, edge
// set, app signatures, infra signature, stability — must be
// byte-identical (reflect.DeepEqual over float-carrying structs, so
// same accumulation order, not just same values) for every source
// shape, on a sorted log of many batches and on an out-of-order one.
func TestPipelineFromSourceMatchesInMemory(t *testing.T) {
	for name, log := range map[string]*flowlog.Log{"sorted": benchLog(60_000), "unsorted": messyLog(t, 300, true)} {
		r := appgroup.NewResolver(nil)
		ref := newPipelineReference(log, r, Config{})
		refApp := ref.App()
		refInfra := ref.Infra()
		refEdges := edgesReference(log, r)
		refStab, err := ref.Stability(StabilityConfig{}, refApp)
		if err != nil {
			t.Fatal(err)
		}
		sources := map[string]func() EventSource{
			"multi-batch": func() EventSource { return sourceOf(log, 1000) },
			"one-batch":   func() EventSource { return LogSource(log) },
		}
		for shape, open := range sources {
			at := name + "/" + shape
			p, err := NewPipelineFromSourceContext(bg, open(), r, Config{}, 5)
			if err != nil {
				t.Fatalf("%s: %v", at, err)
			}
			if p.EventCount() != len(log.Events) {
				t.Errorf("%s: EventCount = %d, want %d", at, p.EventCount(), len(log.Events))
			}
			if !reflect.DeepEqual(p.Occurrences(), ref.occs) {
				t.Errorf("%s: occurrences differ (%d vs %d)", at, len(p.Occurrences()), len(ref.occs))
			}
			if !reflect.DeepEqual(p.Edges(), refEdges) {
				t.Errorf("%s: edge sets differ", at)
			}
			if app := p.App(); !reflect.DeepEqual(app, refApp) {
				t.Errorf("%s: app signatures differ", at)
			}
			if inf := p.Infra(); !reflect.DeepEqual(inf, refInfra) {
				t.Errorf("%s: infra signatures differ", at)
			}
			stab, err := p.Stability(StabilityConfig{}, refApp)
			if err != nil {
				t.Fatalf("%s: %v", at, err)
			}
			if !reflect.DeepEqual(stab, refStab) {
				t.Errorf("%s: stability results differ", at)
			}
		}
	}
}

// Batch size must be invisible: the same events in different batch
// shapes yield the same occurrences.
func TestPipelineFromSourceBatchShapeInvariant(t *testing.T) {
	log := benchLog(5_000)
	r := appgroup.NewResolver(nil)
	want := hopsOf(occurrencesReference(log, 0))
	for _, batch := range []int{1, 7, 8192} {
		p, err := NewPipelineFromSourceContext(bg, sourceOf(log, batch), r, Config{}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(p.Occurrences(), want) {
			t.Errorf("batch=%d: occurrences differ", batch)
		}
	}
}

// Stability over a source pipeline is sized at construction; asking for
// a different interval count later must fail loudly, not mis-bucket.
func TestPipelineFromSourceIntervalMismatch(t *testing.T) {
	log := benchLog(2_000)
	r := appgroup.NewResolver(nil)
	p, err := NewPipelineFromSourceContext(bg, sourceOf(log, 500), r, Config{}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Stability(StabilityConfig{Intervals: 3}, p.App()); err == nil {
		t.Error("want error for interval-count mismatch")
	}
	if _, err := p.Stability(StabilityConfig{Intervals: 5}, p.App()); err != nil {
		t.Errorf("matching interval count: %v", err)
	}
}

// A current build (0 intervals) is the same pipeline minus one product:
// its App and Infra equal a reference build's on the same events, from a
// source and from an extractor's occurrences alike, and its Stability
// fails naming the cause instead of answering with an empty map.
func TestCurrentBuildPipeline(t *testing.T) {
	for name, log := range map[string]*flowlog.Log{"sorted": benchLog(5_000), "unsorted": messyLog(t, 300, true)} {
		r := appgroup.NewResolver(nil)
		build := map[string]func(intervals int) *Pipeline{
			"source": func(intervals int) *Pipeline {
				p, err := NewPipelineFromSourceContext(bg, sourceOf(log, 1000), r, Config{}, intervals)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				return p
			},
			"occurrences": func(intervals int) *Pipeline {
				x := NewStreamExtractor(0, r, intervals, log.Start, log.End)
				feedAll(x, log.Events)
				return NewPipelineFromOccurrencesContext(bg, x, log.Start, log.End, Config{}, x.Gather())
			},
		}
		for entry, open := range build {
			at := name + "/" + entry
			ref, cur := open(5), open(0)
			if !ref.Reference() || cur.Reference() {
				t.Errorf("%s: Reference() = %v / %v, want true / false", at, ref.Reference(), cur.Reference())
			}
			if cur.agg.stride != 1 || len(cur.agg.segs) != 0 {
				t.Errorf("%s: current build folded intervals: stride %d, %d segs", at, cur.agg.stride, len(cur.agg.segs))
			}
			refApp := ref.App()
			if !reflect.DeepEqual(cur.App(), refApp) {
				t.Errorf("%s: app signatures differ between a current and a reference build", at)
			}
			if !reflect.DeepEqual(cur.Infra(), ref.Infra()) {
				t.Errorf("%s: infra signatures differ between a current and a reference build", at)
			}
			if _, err := ref.Stability(StabilityConfig{}, refApp); err != nil {
				t.Errorf("%s: reference build: %v", at, err)
			}
			stab, err := cur.Stability(StabilityConfig{}, refApp)
			if !errors.Is(err, ErrNoIntervals) || stab != nil {
				t.Errorf("%s: current build Stability = %v, %v; want nil and an error wrapping ErrNoIntervals", at, stab, err)
			}
		}
	}
}

// A zero-duration source defers flowlog.Segment's error to Stability,
// worded as the reference reports it.
func TestPipelineFromSourceSegmentErrorParity(t *testing.T) {
	l := flowlog.New(0, 0)
	l.Append(flowlog.Event{Time: 0, Type: flowlog.EventPacketIn, Switch: "sw",
		Flow: flowlog.FlowKey{Proto: 6, Src: addr(1), Dst: addr(2), SrcPort: 1, DstPort: 2}})
	r := appgroup.NewResolver(nil)
	p, err := NewPipelineFromSourceContext(bg, sourceOf(l, 10), r, Config{}, 5)
	if err != nil {
		t.Fatal(err)
	}
	_, errSrc := p.Stability(StabilityConfig{}, p.App())
	_, errMem := newPipelineReference(l, r, Config{}).Stability(StabilityConfig{}, nil)
	if errSrc == nil || errMem == nil {
		t.Fatalf("want errors from both paths, got src=%v mem=%v", errSrc, errMem)
	}
	if errSrc.Error() != errMem.Error() {
		t.Errorf("error parity: src %q, mem %q", errSrc, errMem)
	}
}

type failingSource struct{ after int }

func (f *failingSource) Next() ([]flowlog.Event, error) {
	if f.after > 0 {
		f.after--
		return []flowlog.Event{{Time: time.Second, Type: flowlog.EventPacketIn}}, nil
	}
	return nil, errors.New("disk on fire")
}

func (f *failingSource) Bounds() (start, end time.Duration) { return 0, time.Minute }

func TestPipelineFromSourceReadError(t *testing.T) {
	_, err := NewPipelineFromSourceContext(bg, &failingSource{after: 2}, appgroup.NewResolver(nil), Config{}, 0)
	if err == nil {
		t.Fatal("want the source's read error")
	}
	if got := err.Error(); got != "signature: reading event source: disk on fire" {
		t.Errorf("err = %q", got)
	}
}

func TestPipelineFromSourceEmpty(t *testing.T) {
	p, err := NewPipelineFromSourceContext(bg, sourceOf(flowlog.New(0, time.Minute), 10), appgroup.NewResolver(nil), Config{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.EventCount() != 0 {
		t.Errorf("EventCount = %d, want 0", p.EventCount())
	}
	if occs := p.Occurrences(); len(occs) != 0 {
		t.Errorf("got %d occurrences from an empty source", len(occs))
	}
	if app := p.App(); len(app) != 0 {
		t.Errorf("got %d app signatures from an empty source", len(app))
	}
}
