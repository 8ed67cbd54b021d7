package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"

	"flowdiff"
	"flowdiff/bench/gen"
	"flowdiff/internal/obs"
	"flowdiff/internal/serve"
)

// stack is internal/serve booted in this process behind a real net/http
// listener on 127.0.0.1: requests cross the host loopback, not a link.
type stack struct {
	reg    *obs.Registry
	srv    *serve.Server
	http   *http.Server
	served chan error
	url    string
	dir    string
}

func boot(ctx context.Context, dir string, opts flowdiff.Options, maxTenants int) (*stack, error) {
	reg := obs.New()
	srv, err := serve.New(obs.WithRegistry(ctx, reg), serve.Config{
		Dir: dir, Window: gen.Window, Options: opts, MaxTenants: maxTenants, Registry: reg,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		// The listen error is the one worth reporting.
		_ = srv.Close()
		return nil, err
	}
	s := &stack{
		reg: reg, srv: srv, dir: dir,
		http:   &http.Server{Handler: srv.Handler()},
		served: make(chan error, 1),
		url:    "http://" + ln.Addr().String(),
	}
	go func() { s.served <- s.http.Serve(ln) }()
	return s, nil
}

// close stops the listener, waits for the serving goroutine, and drains
// the tenants.
func (s *stack) close(ctx context.Context) error {
	sctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	err := s.http.Shutdown(sctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if cerr := s.srv.Close(); err == nil {
		err = cerr
	}
	return err
}

// client is one closed-loop caller on one keep-alive connection.
type client struct {
	tr  *http.Transport
	hc  *http.Client
	url string
}

func newClient(url string) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{tr: tr, hc: &http.Client{Transport: tr}, url: url}
}

// do sends one request, decodes a 2xx JSON body into out when out is
// non-nil, and drains the body so the connection is reused.
func (c *client) do(ctx context.Context, method, path string, body []byte, out any) (int, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode/100 == 2 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, err
		}
	}
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return resp.StatusCode, err
	}
	return resp.StatusCode, nil
}

func (c *client) putBaseline(ctx context.Context, tenant string, body []byte) error {
	st, err := c.do(ctx, http.MethodPut, "/v1/tenants/"+tenant+"/baseline", body, nil)
	if err != nil {
		return err
	}
	if st != http.StatusCreated {
		return fmt.Errorf("PUT baseline for %s: status %d", tenant, st)
	}
	return nil
}

// cycleTimes are the instants of one window cycle.
type cycleTimes struct {
	start time.Time
	posts []time.Time // end of each ingest POST
	end   time.Time   // the flush response
}

// writer streams windows to a chain of pre-registered tenants. Chain
// position i is window i%k of tenant i/k, so each tenant sees the k
// windows once and in order: its event time only moves forward.
type writer struct {
	c      *client
	id     int
	in     *streamInputs
	next   int
	limit  int
	ct     cycleTimes
	tracer *tracer
	shadow *shadow

	// done[t] is how many windows tenant t completed.
	done        []int
	bad         []chainPos
	cycleMS     []float64
	flushMS     []float64
	events      int
	rejected429 int
}

type chainPos struct{ tenant, window int }

func (w *writer) tenant(t int) string {
	return "c" + strconv.Itoa(w.id) + "-t" + strconv.Itoa(t)
}

// cycle is one window: its ingest POSTs, then a flush that must name
// the persisted report's seq. It reports whether every status was the
// expected one.
func (w *writer) cycle(ctx context.Context, tenant string, window int) bool {
	ok := true
	ct := &w.ct
	ct.posts = ct.posts[:0]
	ct.start = time.Now()
	for _, body := range w.in.bodies[window] {
		st, err := w.c.do(ctx, http.MethodPost, "/v1/tenants/"+tenant+"/events", body, nil)
		if st == http.StatusTooManyRequests {
			w.rejected429++
		}
		if err != nil || st != http.StatusAccepted {
			ok = false
		}
		ct.posts = append(ct.posts, time.Now())
	}
	var fr serve.FlushResponse
	st, err := w.c.do(ctx, http.MethodPost, "/v1/tenants/"+tenant+"/flush", nil, &fr)
	ct.end = time.Now()
	if err != nil || st != http.StatusOK || !fr.Flushed || fr.Seq != uint64(window+1) {
		ok = false
	}
	return ok
}

func (w *writer) warmTenant() string { return "c" + strconv.Itoa(w.id) + "-warm" }

// warm runs n uncounted windows on the client's warm-up tenant.
func (w *writer) warm(ctx context.Context, n int) error {
	tenant := w.warmTenant()
	for i := 0; i < n && i < len(w.in.bodies); i++ {
		if !w.cycle(ctx, tenant, i) {
			return fmt.Errorf("warm-up window %d of %s failed", i, tenant)
		}
	}
	return nil
}

// run cycles until the deadline or the end of the chain. With a shadow
// it also traces each cycle and replays the window through the layers.
func (w *writer) run(ctx context.Context, deadline time.Time) {
	k := len(w.in.bodies)
	if w.shadow != nil {
		// A shadow Monitor must see a tenant's windows from the first.
		w.next = (w.next + k - 1) / k * k
	}
	for w.next < w.limit && time.Now().Before(deadline) {
		pos := chainPos{w.next / k, w.next % k}
		w.next++
		ok := w.cycle(ctx, w.tenant(pos.tenant), pos.window)
		w.done[pos.tenant] = pos.window + 1
		if w.shadow != nil {
			if err := w.shadow.replay(ctx, w, pos); err != nil {
				fmt.Println("shadow:", err)
				ok = false
			}
		}
		if !ok {
			w.bad = append(w.bad, pos)
			continue
		}
		w.events += w.in.windowEvents[pos.window]
		w.cycleMS = append(w.cycleMS, ms(w.ct.end.Sub(w.ct.start)))
		w.flushMS = append(w.flushMS, ms(w.ct.end.Sub(w.ct.posts[len(w.ct.posts)-1])))
	}
}

// verify compares what each tenant lists with the oracle, outside the
// timed region, and returns how many windows failed in all.
func (w *writer) verify(ctx context.Context) int {
	failed := make(map[chainPos]bool)
	for _, p := range w.bad {
		failed[p] = true
	}
	for t, n := range w.done {
		if n == 0 {
			continue
		}
		var list []serve.ReportSummary
		st, err := w.c.do(ctx, http.MethodGet, "/v1/tenants/"+w.tenant(t)+"/reports", nil, &list)
		if err != nil || st != http.StatusOK {
			fmt.Printf("verify %s: status %d: %v\n", w.tenant(t), st, err)
			list = nil
		}
		for i := 0; i < n; i++ {
			if i >= len(list) || list[i] != summaryOf(uint64(i+1), w.in.oracle[i]) {
				if !failed[chainPos{t, i}] {
					fmt.Printf("verify %s: window %d disagrees with the oracle\n", w.tenant(t), i)
				}
				failed[chainPos{t, i}] = true
			}
		}
	}
	return len(failed)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// reader is the dashboard client of read_beside_write: one op is the
// report list of the archive tenant followed by gets of seeded-random
// reports; it pauses for think between ops.
type reader struct {
	c       *client
	seqs    func() uint64
	gets    int
	reports int
	think   time.Duration
	opMS    []float64
	failed  int
}

const archiveTenant = "archive"

func (r *reader) op(ctx context.Context) {
	t0 := time.Now()
	ok := true
	var list []serve.ReportSummary
	st, err := r.c.do(ctx, http.MethodGet, "/v1/tenants/"+archiveTenant+"/reports", nil, &list)
	if err != nil || st != http.StatusOK || len(list) != r.reports {
		ok = false
	}
	for i := 0; i < r.gets; i++ {
		seq := r.seqs()
		var rec serve.ReportRecord
		st, err := r.c.do(ctx, http.MethodGet, "/v1/tenants/"+archiveTenant+"/reports/"+strconv.FormatUint(seq, 10), nil, &rec)
		if err != nil || st != http.StatusOK || rec.Seq != seq {
			ok = false
		}
	}
	if !ok {
		r.failed++
		return
	}
	r.opMS = append(r.opMS, ms(time.Since(t0)))
}

// fillArchive writes n reports straight into the archive tenant's
// directory: the oracle's reports, cycled. The tenant is registered
// first and never written through the API, so it holds exactly n.
func fillArchive(ctx context.Context, s *stack, c *client, in *streamInputs, n int) error {
	if err := c.putBaseline(ctx, archiveTenant, in.baseline); err != nil {
		return err
	}
	store, err := serve.OpenStore(s.dir)
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		r := in.oracle[i%len(in.oracle)]
		rec := serve.ReportRecord{Seq: uint64(i + 1), From: r.From, To: r.To, Report: r.Report}
		if err := store.SaveReport(archiveTenant, rec); err != nil {
			return err
		}
	}
	return nil
}
