package obs

import (
	"expvar"
	"net"
	"net/http"
	"net/http/pprof"
)

// Handler serves the registry's JSON snapshot (the /metrics payload).
// A nil registry serves an empty snapshot.
func Handler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		// String() is the expvar rendering; reusing it keeps the two
		// export paths byte-identical.
		if _, err := w.Write([]byte(r.String() + "\n")); err != nil {
			// The client hung up mid-write; nothing to clean up.
			return
		}
	})
}

// NewMux bundles the full diagnostics surface:
//
//	/metrics          JSON snapshot of r
//	/debug/vars      expvar (stdlib memstats + anything Publish'd)
//	/debug/pprof/...  net/http/pprof profiles
func NewMux(r *Registry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", Handler(r))
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Serve starts the diagnostics endpoint on addr in a background
// goroutine and returns the bound address (useful with ":0") and a stop
// function. The flowdiff and dcsim binaries hang this off
// -metrics-addr.
func Serve(addr string, r *Registry) (string, func() error, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: NewMux(r)}
	// Detached by contract: the goroutine exits when the returned stop function (srv.Close) shuts the listener.
	go func() {
		// ErrServerClosed is the normal shutdown path; any other error
		// means the listener died, which the owner observes by the
		// endpoint disappearing — there is no caller left to return it to.
		_ = srv.Serve(ln)
	}()
	return ln.Addr().String(), srv.Close, nil
}
