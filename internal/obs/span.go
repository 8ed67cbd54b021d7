package obs

import (
	"context"
	"time"
)

// SpanTimer measures one execution of a named stage. End records the
// elapsed time into the registry histogram "span.<name>" — so the
// histogram's Count is "how many times the stage ran" (deterministic)
// and its Sum/quantiles are the stage's latency profile (wall clock).
// A SpanTimer is a value, single-use and not safe for concurrent End
// calls; for concurrent executions of the same stage, start one span
// per execution (the histogram underneath is concurrency-safe).
type SpanTimer struct {
	hist  *Histogram
	reg   *Registry
	start time.Time
}

// SpanPrefix namespaces every span histogram in a registry snapshot.
const SpanPrefix = "span."

// Span starts a stage timer against the context's registry (Default
// when the context carries none, disabled when it carries nil). The
// idiom is:
//
//	defer obs.Span(ctx, "signature.extract").End()
func Span(ctx context.Context, name string) SpanTimer {
	//lint:ignore obsspan Span is the registry entry point itself; the name is the caller's constant, and callers are where staticness is enforced
	return From(ctx).Span(name)
}

// Span starts a stage timer recording into this registry. The
// histogram is found by the bare name, so once the registry has seen
// name a span allocates nothing.
func (r *Registry) Span(name string) SpanTimer {
	if r == nil {
		return SpanTimer{}
	}
	r.mu.RLock()
	h := r.spans[name]
	r.mu.RUnlock()
	if h == nil {
		h = r.Histogram(SpanPrefix + name)
		r.mu.Lock()
		r.spans[name] = h
		r.mu.Unlock()
	}
	return SpanTimer{hist: h, reg: r, start: r.Now()}
}

// End stops the span and records its duration. Safe on the zero span a
// nil registry hands out.
func (s SpanTimer) End() {
	if s.reg == nil {
		return
	}
	s.hist.Observe(s.reg.Since(s.start))
}
