// Package parallel holds the one worker-pool primitive every fan-out in
// the repo shares (signature pipeline, sharded extraction, task mining,
// stability intervals), plus the worker-count policy: requested widths
// are clamped to the hardware so a single-CPU host never pays goroutine
// fan-out overhead for parallelism it cannot realize.
package parallel

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"flowdiff/internal/obs"
)

// Clamp resolves a requested worker count against the hardware:
// non-positive means "one worker per CPU", and any request wider than
// GOMAXPROCS is cut down to it — extra workers beyond the CPU count only
// add scheduling and merge overhead (20–70 % measured on a 1-CPU host).
// A clamped result of 1 is the contract for callers to take their serial
// fast path.
func Clamp(requested int) int {
	max := runtime.GOMAXPROCS(0)
	if requested <= 0 || requested > max {
		return max
	}
	return requested
}

// ForContext runs fn(0..n-1) on a bounded pool of workers goroutines.
// Each fn(i) must write only its own output slot; under that contract the
// result is identical for every worker count. One worker (or one item)
// degrades to a plain loop with no goroutines. The caller picks workers
// (typically via Clamp); ForContext itself only trims workers to n.
//
// Workers stop picking up new items as soon as ctx is canceled — items
// already running finish, the pool fully drains (every goroutine exits
// before ForContext returns), and the call reports ctx.Err(). The
// completed subset of fn calls is a prefix-closed set only per worker,
// so on a non-nil return the caller must discard its outputs.
//
// Instrumentation goes to the context's obs registry (obs.Default when
// none travels in ctx, disabled when the context carries nil):
//
//	parallel.active      gauge: workers currently inside fn (max = the
//	                     widest the pool ever ran, ≥1 even serially)
//	parallel.items       counter: items dispatched; NOT deterministic
//	                     across Options.Parallelism — serial fast paths
//	                     bypass pools entirely
//	span.parallel.queue_wait  per-item delay between the ForContext
//	                     call and the item's dispatch
//
// Metric objects are resolved once per call, so the per-item cost is an
// atomic add, a clock read, and a histogram observe — stage-granular
// fan-outs (groups, intervals, shards) never notice it.
func ForContext(ctx context.Context, n, workers int, fn func(int)) error {
	if workers > n {
		workers = n
	}
	reg := obs.From(ctx)
	var (
		active = reg.Gauge("parallel.active")
		items  = reg.Counter("parallel.items")
		wait   = reg.Histogram(obs.SpanPrefix + "parallel.queue_wait")
		start  = reg.Now()
	)
	if workers <= 1 {
		active.Add(1)
		defer active.Add(-1)
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			wait.Observe(reg.Since(start))
			items.Inc()
			fn(i)
		}
		return nil
	}
	done := ctx.Done()
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			active.Add(1)
			defer active.Add(-1)
			for {
				select {
				case <-done:
					return
				default:
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				wait.Observe(reg.Since(start))
				items.Inc()
				fn(i)
			}
		}()
	}
	wg.Wait()
	return ctx.Err()
}
