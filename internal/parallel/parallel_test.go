package parallel

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flowdiff/internal/obs"
)

func TestClamp(t *testing.T) {
	max := runtime.GOMAXPROCS(0)
	cases := map[int]int{
		0:        max,
		-3:       max,
		1:        1,
		max:      max,
		max + 5:  max,
		max + 50: max,
	}
	for req, want := range cases {
		if got := Clamp(req); got != want {
			t.Errorf("Clamp(%d) = %d, want %d (GOMAXPROCS %d)", req, got, want, max)
		}
	}
}

// TestClampTracksGOMAXPROCS pins that the clamp reads the live setting,
// not a cached one: tests that raise GOMAXPROCS to exercise real
// concurrency on small hosts rely on this.
func TestClampTracksGOMAXPROCS(t *testing.T) {
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)
	runtime.GOMAXPROCS(3)
	if got := Clamp(8); got != 3 {
		t.Errorf("Clamp(8) under GOMAXPROCS=3 = %d, want 3", got)
	}
	if got := Clamp(2); got != 2 {
		t.Errorf("Clamp(2) under GOMAXPROCS=3 = %d, want 2", got)
	}
}

// TestForCoversEveryIndexOnce pins the bare pool, with instrumentation
// off: every index runs exactly once at any width.
func TestForCoversEveryIndexOnce(t *testing.T) {
	ctx := obs.WithRegistry(context.Background(), nil)
	for _, workers := range []int{1, 2, 4, 7} {
		const n = 1000
		counts := make([]atomic.Int32, n)
		if err := ForContext(ctx, n, workers, func(i int) { counts[i].Add(1) }); err != nil {
			t.Fatalf("workers=%d: unexpected error %v", workers, err)
		}
		for i := range counts {
			if got := counts[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, got)
			}
		}
	}
}

func TestForZeroItems(t *testing.T) {
	reg := obs.New()
	ctx := obs.WithRegistry(context.Background(), reg)
	for _, workers := range []int{1, 4} {
		called := false
		if err := ForContext(ctx, 0, workers, func(int) { called = true }); err != nil {
			t.Fatalf("workers=%d: unexpected error %v", workers, err)
		}
		if called {
			t.Errorf("workers=%d: fn called for n=0", workers)
		}
	}
	if got := reg.Counter("parallel.items").Value(); got != 0 {
		t.Errorf("parallel.items = %d, want 0", got)
	}
}

func TestForContextCoversEveryIndexOnce(t *testing.T) {
	reg := obs.New()
	ctx := obs.WithRegistry(context.Background(), reg)
	for _, workers := range []int{1, 2, 4, 7} {
		const n = 500
		counts := make([]atomic.Int32, n)
		if err := ForContext(ctx, n, workers, func(i int) { counts[i].Add(1) }); err != nil {
			t.Fatalf("workers=%d: unexpected error %v", workers, err)
		}
		for i := range counts {
			if got := counts[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, got)
			}
		}
	}
	if got := reg.Counter("parallel.items").Value(); got != 4*500 {
		t.Errorf("parallel.items = %d, want %d", got, 4*500)
	}
	if got := reg.Gauge("parallel.active").Value(); got != 0 {
		t.Errorf("parallel.active after drain = %d, want 0", got)
	}
	if got := reg.Gauge("parallel.active").Max(); got < 1 {
		t.Errorf("parallel.active max = %d, want >= 1", got)
	}
}

// TestForContextCancelStopsDispatch pins the cancellation contract:
// after cancel, no new item is dispatched, in-flight items finish, the
// pool drains, and the call returns ctx.Err().
func TestForContextCancelStopsDispatch(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(obs.WithRegistry(context.Background(), obs.New()))
		const n = 10_000
		var ran atomic.Int64
		release := make(chan struct{})
		var cancelOnce sync.Once
		err := ForContext(ctx, n, workers, func(i int) {
			ran.Add(1)
			// The first item cancels the context and briefly blocks so
			// sibling workers observe the cancellation while it is still
			// in flight.
			cancelOnce.Do(func() {
				cancel()
				close(release)
			})
			<-release
		})
		if err == nil || !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		// Dispatch must have stopped far short of n: each worker runs at
		// most the item it held when cancel landed plus one already
		// claimed.
		if got := ran.Load(); got > int64(2*workers) {
			t.Errorf("workers=%d: %d items ran after cancel, want <= %d", workers, got, 2*workers)
		}
		cancel()
	}
}

// TestForContextDrainsGoroutines proves a canceled pool leaks nothing.
func TestForContextDrainsGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := ForContext(ctx, 1000, 8, func(int) {}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	n := runtime.NumGoroutine()
	for n > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	if n > before {
		t.Errorf("goroutines: %d before, still %d after canceled ForContext", before, n)
	}
}

// TestForContextNilRegistry pins that a disabled registry costs nothing
// and breaks nothing.
func TestForContextNilRegistry(t *testing.T) {
	ctx := obs.WithRegistry(context.Background(), nil)
	var sum atomic.Int64
	if err := ForContext(ctx, 100, 4, func(i int) { sum.Add(int64(i)) }); err != nil {
		t.Fatal(err)
	}
	if got := sum.Load(); got != 4950 {
		t.Errorf("sum = %d, want 4950", got)
	}
}
