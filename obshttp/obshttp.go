// Package obshttp exposes the dsh metrics plane over HTTP: one mux
// serving the process-wide registry as Prometheus text (/metrics), as
// expvar-style JSON with histogram percentiles and the lifecycle event
// trace (/debug/vars), and the standard net/http/pprof profiling
// endpoints (/debug/pprof/). It has no dependencies beyond the standard
// library and never blocks or allocates on the instrumented hot paths —
// encoding happens only when a scrape arrives.
//
// Typical wiring:
//
//	srv, addr, err := obshttp.Start("127.0.0.1:9100")
//	// ... curl http://<addr>/metrics, /debug/vars, /debug/pprof/ ...
//	defer srv.Close()
//
// or mount Handler() on an existing server.
package obshttp

import (
	"net"
	"net/http"
	"net/http/pprof"

	"dsh/internal/obs"
)

// Handler returns the debug mux over the process-wide metrics registry:
//
//	/metrics      Prometheus text exposition (counters, gauges,
//	              cumulative log2 histogram buckets)
//	/debug/vars   expvar-style JSON: counters, gauges, histograms with
//	              count/sum/mean/p50/p99/p999, buffered trace events
//	/debug/pprof  the standard runtime profiles (heap, goroutine, CPU,
//	              block, mutex, trace, symbol lookup)
//	/             a plain-text index of the above
func Handler() http.Handler { return handlerFor(obs.Default) }

// Mount registers the metrics-plane endpoints (/metrics, /debug/vars,
// /debug/pprof/*) on an existing mux, so servers with their own routes —
// the dshserve network edge mounts it next to its /v1 endpoints — expose
// the registry without a second listener. The index route ("/") is not
// registered, leaving the root to the embedding server.
func Mount(mux *http.ServeMux) { mountFor(mux, obs.Default) }

// mountFor registers the registry endpoints on mux.
func mountFor(mux *http.ServeMux, r *obs.Registry) {
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
	mux.HandleFunc("/debug/vars", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		_ = r.WriteJSON(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

func handlerFor(r *obs.Registry) http.Handler {
	mux := http.NewServeMux()
	mountFor(mux, r)
	mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/" {
			http.NotFound(w, req)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write([]byte("dsh metrics plane\n\n/metrics\n/debug/vars\n/debug/pprof/\n"))
	})
	return mux
}

// Start listens on addr (use ":0" for an ephemeral port) and serves
// Handler in a background goroutine. It returns the running server and
// the bound address; shut down with srv.Close or srv.Shutdown.
func Start(addr string) (*http.Server, net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	srv := &http.Server{Handler: Handler()}
	go func() { _ = srv.Serve(ln) }()
	return srv, ln.Addr(), nil
}
