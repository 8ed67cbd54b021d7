package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"flowdiff"
	"flowdiff/bench/gen"
	"flowdiff/internal/flowlog"
	"flowdiff/internal/flowlog/colseg"
	"flowdiff/internal/serve"
)

// jsonChunks is how many POSTs carry one window in stream_json_chunked
// (≈ 250 events each).
const jsonChunks = 20

// streamInputs is everything a serve workload replays: the program sees
// only these bytes. All of it is made in set-up, so the generator and
// the encoders spend no CPU during the timed run.
type streamInputs struct {
	gen      *gen.Generator
	opts     flowdiff.Options
	baseLog  *flowlog.Log
	baseline []byte // the baseline as FDC1, the PUT body
	// bodies[w] are window w's request bodies, in POST order, and
	// windowEvents[w] its event count. The decoded windows are not kept:
	// they would triple the heap the service's collector has to mark.
	bodies       [][][]byte
	windowEvents []int
	// oracle[w] is what an offline Monitor reports for window w.
	oracle []flowdiff.MonitorReport
	// encodeNS is the time spent encoding bodies; wireBytes their size.
	encodeNS  int64
	wireBytes int
	events    int
}

func encodeFDC1(l *flowlog.Log) ([]byte, error) {
	var b bytes.Buffer
	if err := colseg.Write(&b, l, colseg.WriterOptions{}); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// makeStream generates and encodes k stream windows, running the
// offline oracle over each as it goes.
func makeStream(ctx context.Context, seed int64, k int, asJSON bool) (*streamInputs, error) {
	g, err := gen.New(seed)
	if err != nil {
		return nil, err
	}
	in := &streamInputs{gen: g, opts: flowdiff.Options{Topo: g.Topo}, baseLog: g.Baseline()}
	if in.baseline, err = encodeFDC1(in.baseLog); err != nil {
		return nil, fmt.Errorf("encoding baseline: %w", err)
	}
	// The oracle: one offline Monitor fed exactly what a tenant is fed —
	// a window's events, then a flush.
	mon, err := flowdiff.NewMonitor(ctx, in.baseLog, gen.Window, nil, flowdiff.Thresholds{}, in.opts)
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	for w := 0; w < k; w++ {
		l := g.StreamWindow(w)
		in.windowEvents = append(in.windowEvents, len(l.Events))
		in.events += len(l.Events)
		rep, err := observeAndFlush(ctx, mon, l.Events)
		if err != nil {
			return nil, fmt.Errorf("oracle window %d: %w", w, err)
		}
		in.oracle = append(in.oracle, *rep)
		t0 := time.Now()
		var bodies [][]byte
		if asJSON {
			for c := 0; c < jsonChunks; c++ {
				lo, hi := c*len(l.Events)/jsonChunks, (c+1)*len(l.Events)/jsonChunks
				var b bytes.Buffer
				if err := (&flowlog.Log{Start: l.Start, End: l.End, Events: l.Events[lo:hi]}).WriteJSON(&b); err != nil {
					return nil, err
				}
				bodies = append(bodies, b.Bytes())
			}
		} else {
			body, err := encodeFDC1(l)
			if err != nil {
				return nil, fmt.Errorf("encoding window %d: %w", w, err)
			}
			bodies = [][]byte{body}
		}
		in.encodeNS += time.Since(t0).Nanoseconds()
		for _, b := range bodies {
			in.wireBytes += len(b)
		}
		in.bodies = append(in.bodies, bodies)
	}
	return in, nil
}

// observeAndFlush feeds one window to a Monitor and closes it.
func observeAndFlush(ctx context.Context, mon *flowdiff.Monitor, events []flowlog.Event) (*flowdiff.MonitorReport, error) {
	for i := range events {
		if _, err := mon.Observe(ctx, events[i]); err != nil {
			return nil, err
		}
	}
	rep, err := mon.Flush(ctx)
	if err != nil {
		return nil, err
	}
	if rep == nil {
		return nil, fmt.Errorf("window of %d events produced no report", len(events))
	}
	return rep, nil
}

// summaryOf is the list row the service must serve for an oracle report.
func summaryOf(seq uint64, r flowdiff.MonitorReport) serve.ReportSummary {
	return serve.ReportSummary{
		Seq: seq, From: r.From, To: r.To,
		Known: len(r.Report.Known), Unknown: len(r.Report.Unknown), Alarm: len(r.Report.Unknown) > 0,
	}
}
