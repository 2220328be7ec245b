package obs

import (
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// NewMux builds the observability HTTP handler:
//
//	/metrics       Prometheus text exposition of the registry
//	/debug/vars    flat JSON dump of the registry
//	/debug/events  JSON array of the tracer's retained protocol events
//	/debug/pprof/  the standard net/http/pprof handlers
//
// Either argument may be nil; the corresponding endpoints then serve empty
// documents.
func NewMux(reg *Registry, tr *Tracer) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = reg.WritePrometheus(w) // a write error to a scraping client is the client's problem, not the server's
	})
	mux.HandleFunc("/debug/vars", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		_ = reg.WriteJSON(w) // as above
	})
	mux.HandleFunc("/debug/events", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		_ = tr.WriteJSON(w) // as above
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Server is a running observability endpoint; Close stops it.
type Server struct {
	Addr string // the bound address (resolves ":0" requests)
	ln   net.Listener
	srv  *http.Server
}

// Serve starts the observability HTTP server on addr (e.g. "127.0.0.1:7800",
// or ":0" for an ephemeral port — read the bound address from Server.Addr).
// The server runs until Close.
func Serve(addr string, reg *Registry, tr *Tracer) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{
		Addr: ln.Addr().String(),
		ln:   ln,
		srv: &http.Server{
			Handler:           NewMux(reg, tr),
			ReadHeaderTimeout: 5 * time.Second,
		},
	}
	go func() { _ = s.srv.Serve(ln) }() // Serve always returns ErrServerClosed after Close
	return s, nil
}

// Close stops the server and releases the listener.
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	return s.srv.Close()
}
