package live

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"
)

// Server is the ops HTTP endpoint: /metrics (Prometheus text exposition),
// /healthz, /runs (board snapshot JSON), and /debug/pprof/*. It owns its
// listener and serving goroutine; Close shuts both down and does not
// return until the goroutine has exited, so a closed server leaks nothing.
type Server struct {
	ln  net.Listener
	mux *http.ServeMux
	srv *http.Server
	wg  sync.WaitGroup
}

// Serve starts the ops server on addr (host:port; port 0 picks a free
// port — read the result from Addr). The handler set is a private mux, so
// it never collides with http.DefaultServeMux or any pprof handlers the
// embedding process registers itself.
func Serve(addr string, t *Telemetry) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = t.Registry.WritePrometheus(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("/runs", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(t.Board.Snapshot())
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	s := &Server{ln: ln, mux: mux, srv: &http.Server{Handler: mux}}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		// ErrServerClosed is the normal shutdown path; any other error
		// means the listener died, which Close surfaces by returning.
		_ = s.srv.Serve(ln)
	}()
	return s, nil
}

// Addr returns the bound listen address (useful with port 0).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close gracefully drains in-flight requests (bounded at 2s), force-closes
// any stragglers, and waits for the serving goroutine to exit.
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if err != nil {
		err = s.srv.Close()
	}
	s.wg.Wait()
	return err
}
