// Package obs is FlowDiff's self-instrumentation layer: atomic
// counters, gauges, streaming duration histograms, and span timers,
// collected in a Registry and exported as an expvar-compatible JSON
// snapshot or over HTTP (see http.go).
//
// The package is stdlib-only and built around three contracts:
//
//   - Observability never changes behavior. Metrics are write-only from
//     the pipeline's point of view; no instrumented stage ever reads a
//     metric back to make a decision, so diagnosis reports are
//     byte-identical with instrumentation on or off (pinned by
//     TestReportIdenticalWithObsOnOff in the root package).
//
//   - Counters are deterministic. Everything recorded on a Counter is a
//     pure function of the input log (occurrences extracted, groups
//     discovered, windows flushed, changes emitted), so counter values
//     are identical at any GOMAXPROCS. Timings (histograms) and
//     occupancy (gauges) are scheduling-dependent by nature and carry
//     no such guarantee.
//
//   - Time stays injectable. Registry reads wall time only through its
//     Clock, so instrumented packages never call time.Now directly —
//     the wallclock analyzer enforces this mechanically in the
//     virtual-time packages — and tests can drive spans with a fake
//     clock.
//
// A package-level Default registry serves the always-on production
// path; tests inject a fresh Registry (or nil, to disable collection
// entirely) through a context.Context via WithRegistry. Every method is
// nil-receiver safe, so a disabled registry costs a few nil checks and
// nothing else.
package obs

import (
	"context"
	"maps"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Clock is the wall-time source a Registry stamps spans with. The
// default is time.Now; tests inject a deterministic clock via SetClock.
type Clock func() time.Time

// Registry is a concurrency-safe collection of named metrics. The zero
// value is not usable; create registries with New. A nil *Registry is a
// valid "collection disabled" instance: every method no-ops.
type Registry struct {
	mu       sync.RWMutex
	clock    Clock
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	// spans holds the "span."-prefixed hists by bare span name.
	spans map[string]*Histogram
}

// New creates an empty registry reading time.Now.
func New() *Registry {
	return &Registry{
		clock:    time.Now,
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		spans:    make(map[string]*Histogram),
	}
}

var defaultRegistry = New()

// Default returns the package-level registry the always-on
// instrumentation records into when no registry travels in the context.
func Default() *Registry { return defaultRegistry }

// SetClock replaces the registry's time source (nil restores time.Now).
func (r *Registry) SetClock(c Clock) {
	if r == nil {
		return
	}
	if c == nil {
		c = time.Now
	}
	r.mu.Lock()
	r.clock = c
	r.mu.Unlock()
}

// Now reads the registry's clock. A nil registry returns the zero time,
// which is fine: every consumer of the value is itself nil-safe.
func (r *Registry) Now() time.Time {
	if r == nil {
		return time.Time{}
	}
	r.mu.RLock()
	c := r.clock
	r.mu.RUnlock()
	return c()
}

// Since returns the elapsed time between t and the registry's clock.
func (r *Registry) Since(t time.Time) time.Duration {
	if r == nil {
		return 0
	}
	return r.Now().Sub(t)
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named duration histogram, creating it on first
// use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = newHistogram()
		r.hists[name] = h
	}
	return h
}

// Remove unregisters the named metrics of every kind, so an instrument
// whose owner is gone leaves the snapshot and a later registration of
// the name starts from zero. Handles already held keep working, detached.
func (r *Registry) Remove(names ...string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, name := range names {
		delete(r.counters, name)
		delete(r.gauges, name)
		delete(r.hists, name)
		delete(r.spans, strings.TrimPrefix(name, SpanPrefix)) // at worst a span cache miss
	}
}

// Reset zeroes every metric (the names stay registered). Tests use it to
// scope assertions on the Default registry.
func (r *Registry) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.counters {
		c.v.Store(0)
	}
	for _, g := range r.gauges {
		g.cur.Store(0)
		g.max.Store(0)
	}
	for _, h := range r.hists {
		h.reset()
	}
}

// registered copies the metrics of one kind; callers hold no lock. A
// snapshot reads the copy, so it never re-registers a name that Remove
// drops meanwhile.
func registered[M any](mu *sync.RWMutex, m map[string]M) map[string]M {
	mu.RLock()
	defer mu.RUnlock()
	return maps.Clone(m)
}

// Counter is a monotonically increasing atomic counter. Record only
// deterministic quantities on counters (see the package comment).
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous level with a high-water mark: Add tracks
// the current value and remembers the maximum it ever reached (pool
// occupancy uses this — the snapshot's ".max" is the widest the pool
// ever ran).
type Gauge struct {
	cur atomic.Int64
	max atomic.Int64
}

// Add moves the gauge by delta (negative to decrement) and updates the
// high-water mark.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	v := g.cur.Add(delta)
	for {
		m := g.max.Load()
		if v <= m || g.max.CompareAndSwap(m, v) {
			return
		}
	}
}

// Set forces the gauge to v and updates the high-water mark.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.cur.Store(v)
	for {
		m := g.max.Load()
		if v <= m || g.max.CompareAndSwap(m, v) {
			return
		}
	}
}

// Value returns the current level.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.cur.Load()
}

// Max returns the high-water mark.
func (g *Gauge) Max() int64 {
	if g == nil {
		return 0
	}
	return g.max.Load()
}

// ctxKey carries a *Registry in a context.Context.
type ctxKey struct{}

// WithRegistry returns a context carrying r. Passing nil explicitly
// disables collection for everything downstream (distinct from "no
// registry in the context", which falls back to Default).
func WithRegistry(ctx context.Context, r *Registry) context.Context {
	return context.WithValue(ctx, ctxKey{}, r)
}

// From extracts the registry from ctx: the one placed by WithRegistry
// (which may deliberately be nil = disabled), or Default when the
// context carries none.
func From(ctx context.Context) *Registry {
	if ctx == nil {
		return Default()
	}
	if v, ok := ctx.Value(ctxKey{}).(*Registry); ok {
		return v
	}
	return Default()
}
