package obs

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"
)

// MetricsServer serves a Registry's Prometheus text exposition over HTTP —
// the live /metrics surface of a running workflow (-metrics-addr).
type MetricsServer struct {
	ln  net.Listener
	srv *http.Server

	// serveErr carries the serve loop's exit status so a failure that
	// happened while scraping ran in the background is not swallowed: Close
	// surfaces it (http.ErrServerClosed is the clean exit).
	serveErr chan error

	closeOnce sync.Once
	closeErr  error
}

// ServeMetrics listens on addr (":0" picks a free port) and serves the
// registry at /metrics (and /, for convenience). It returns once the
// listener is bound — a bind failure is returned, never logged, so CLI
// callers can exit nonzero — and scraping runs in the background until
// Close.
func ServeMetrics(addr string, reg *Registry) (*MetricsServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: metrics bind %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	handler := func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WritePrometheus(w)
	}
	mux.HandleFunc("/metrics", handler)
	mux.HandleFunc("/", handler)
	s := &MetricsServer{
		ln:       ln,
		srv:      &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second},
		serveErr: make(chan error, 1),
	}
	go func() { s.serveErr <- s.srv.Serve(ln) }()
	return s, nil
}

// Addr returns the bound listen address (host:port).
func (s *MetricsServer) Addr() string { return s.ln.Addr().String() }

// URL returns the scrape URL.
func (s *MetricsServer) URL() string { return "http://" + s.Addr() + "/metrics" }

// Close stops the server immediately — in-flight scrapes are severed — and
// releases the port, folding in the serve loop's exit status. Later calls
// return the first one's result.
func (s *MetricsServer) Close() error {
	s.closeOnce.Do(func() {
		s.closeErr = s.srv.Close()
		if serr := <-s.serveErr; serr != nil && !errors.Is(serr, http.ErrServerClosed) && s.closeErr == nil {
			s.closeErr = serr
		}
	})
	return s.closeErr
}
