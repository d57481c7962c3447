package obs

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
)

// Handler returns the debug mux: /metrics serves the Default registry in
// Prometheus text exposition format, and /debug/pprof/... serves the
// standard runtime profiles (heap, goroutine, CPU profile, execution
// trace). The root path lists the endpoints.
func Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = defaultRegistry.WritePrometheus(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/{$}", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprint(w, "wpred debug endpoint\n\n/metrics\n/debug/pprof/\n")
	})
	return mux
}

// statusRecorder captures the status code a handler writes so the
// middleware can label its request counter. An untouched handler that
// never calls WriteHeader implicitly writes 200.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// codeCounters resolves one handler's wpred_http_requests_total series
// once per status code, so a request increments a cached counter instead
// of rendering its labels and looking the series up in the registry.
type codeCounters struct {
	handler string
	mu      sync.Mutex
	byCode  map[int]*Counter
}

// get returns the handler's counter for code, registering it on first use.
func (c *codeCounters) get(code int) *Counter {
	c.mu.Lock()
	defer c.mu.Unlock()
	ctr := c.byCode[code]
	if ctr == nil {
		ctr = GetCounter("wpred_http_requests_total",
			"Completed HTTP requests, by handler and status code.",
			Labels{"handler": c.handler, "code": strconv.Itoa(code)})
		c.byCode[code] = ctr
	}
	return ctr
}

// InstrumentHandler wraps an HTTP handler with the serving-layer request
// metrics on the Default registry:
//
//	wpred_http_requests_total{handler,code}      — completed requests
//	wpred_http_request_duration_seconds{handler} — wall-clock latency
//	wpred_http_requests_in_flight{handler}       — currently executing
//
// handler is the route's stable label (e.g. "predict"), never the raw URL
// path, so cardinality stays bounded. The per-code counter series are
// registered on first use; the duration histogram and in-flight gauge are
// registered at wrap time.
func InstrumentHandler(handler string, h http.Handler) http.Handler {
	duration := GetHistogram("wpred_http_request_duration_seconds",
		"Wall-clock HTTP request latency, by handler.",
		DefBuckets, Labels{"handler": handler})
	inFlight := GetGauge("wpred_http_requests_in_flight",
		"HTTP requests currently executing, by handler.",
		Labels{"handler": handler})
	requests := &codeCounters{handler: handler, byCode: map[int]*Counter{}}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		inFlight.Add(1)
		sp := StartSpan("http." + handler)
		defer func() {
			d := sp.End()
			inFlight.Add(-1)
			duration.ObserveDuration(d)
			requests.get(rec.status).Inc()
		}()
		h.ServeHTTP(rec, r)
	})
}

// Server is a running debug endpoint.
type Server struct {
	// Addr is the bound address (resolves ":0" to the chosen port).
	Addr string
	srv  *http.Server
}

// Serve starts the debug endpoint on addr in a background goroutine and
// returns once the listener is bound, so the reported Addr is ready to
// scrape. Close shuts it down.
func Serve(addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: Handler()}
	go func() { _ = srv.Serve(ln) }()
	return &Server{Addr: ln.Addr().String(), srv: srv}, nil
}

// Close immediately shuts the endpoint down.
func (s *Server) Close() error { return s.srv.Close() }
