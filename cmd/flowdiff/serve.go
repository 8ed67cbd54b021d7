package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"time"

	"flowdiff"
	"flowdiff/internal/obs"
	"flowdiff/internal/serve"
	"flowdiff/internal/topology"
)

// A client gets readHeaderTimeout to finish a request's headers and an
// idle keep-alive connection idleTimeout, so neither holds a connection
// forever. Bodies are bounded by size, not time: uploads may be slow.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

func newHTTPServer(h http.Handler, readHeader time.Duration) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeader, IdleTimeout: idleTimeout}
}

// runServe boots the multi-tenant diagnosis service. Unlike the
// one-shot comparison, serve takes no capture flags: baselines arrive
// per tenant over the API, and events stream in afterwards.
func runServe(args []string) error {
	// Reject the one-shot flags up front with a pointer at the API, so a
	// pre-redesign invocation fails with guidance instead of a generic
	// "flag provided but not defined".
	for _, a := range args {
		for _, bad := range []string{"-baseline", "--baseline", "-current", "--current"} {
			if a == bad || len(a) > len(bad) && a[:len(bad)+1] == bad+"=" {
				return fmt.Errorf("serve: %s does not apply: the service is multi-tenant and long-running — upload a baseline with PUT /v1/tenants/{id}/baseline and stream events with POST /v1/tenants/{id}/events", a)
			}
		}
	}
	fs := flag.NewFlagSet("flowdiff serve", flag.ExitOnError)
	var (
		addr        = fs.String("addr", "127.0.0.1:8080", "listen address for the /v1 API (port 0 picks a free port)")
		dir         = fs.String("dir", "flowdiff-data", "service data directory (one subdirectory per tenant)")
		window      = fs.Duration("window", time.Minute, "per-tenant diagnosis window")
		topoFlag    = fs.String("topo", "lab", "topology for host naming: lab | tree320 | none")
		queueBudget = fs.Int("queue-budget", 65536, "per-tenant buffered-event budget before ingest returns 429")
		maxTenants  = fs.Int("max-tenants", 64, "concurrent tenant cap")
		retention   = fs.Duration("retention", 24*time.Hour, "how long window reports stay on disk")
		gcInterval  = fs.Duration("gc-interval", time.Minute, "background report-GC period")
	)
	// ExitOnError: Parse never returns a non-nil error to us.
	_ = fs.Parse(args)

	opts := flowdiff.Options{}
	switch *topoFlag {
	case "lab":
		topo, err := topology.Lab()
		if err != nil {
			return err
		}
		opts.Topo = topo
		opts.Special = topology.ServiceNodes
	case "tree320":
		topo, err := topology.Tree320()
		if err != nil {
			return err
		}
		opts.Topo = topo
	case "none":
	default:
		return fmt.Errorf("unknown topology %q", *topoFlag)
	}

	reg := obs.New()
	ctx := obs.WithRegistry(context.Background(), reg)
	srv, err := serve.New(ctx, serve.Config{
		Dir:         *dir,
		Window:      *window,
		Options:     opts,
		QueueBudget: *queueBudget,
		MaxTenants:  *maxTenants,
		Retention:   *retention,
		GCInterval:  *gcInterval,
		Registry:    reg,
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		// The listen/serve error is the one worth reporting.
		_ = srv.Close()
		return fmt.Errorf("serve: listening on %s: %w", *addr, err)
	}
	httpSrv := newHTTPServer(srv.Handler(), readHeaderTimeout)
	fmt.Fprintf(os.Stderr, "flowdiff: serving /v1 on http://%s (data in %s)\n", ln.Addr(), *dir)

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	select {
	case <-sig:
		fmt.Fprintln(os.Stderr, "flowdiff: interrupt; draining tenants")
	case err := <-errc:
		// The listen/serve error is the one worth reporting.
		_ = srv.Close()
		return fmt.Errorf("serve: %w", err)
	}

	// Stop accepting requests, then drain every tenant queue so accepted
	// events are observed and persisted before exit.
	sctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(sctx); err != nil {
		// The listen/serve error is the one worth reporting.
		_ = srv.Close()
		return fmt.Errorf("serve: shutdown: %w", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		// The listen/serve error is the one worth reporting.
		_ = srv.Close()
		return fmt.Errorf("serve: %w", err)
	}
	return srv.Close()
}
