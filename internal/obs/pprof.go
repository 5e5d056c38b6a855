package obs

import (
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// StartPprof serves the Go runtime profiling endpoints (/debug/pprof/...)
// on addr and returns the bound address (useful with ":0") plus a stop
// function. It uses a private mux so importing this package never touches
// http.DefaultServeMux. Long grid runs start this from the CLIs' -pprof
// flag to make CPU/heap/goroutine behaviour inspectable mid-run.
func StartPprof(addr string) (string, func(), error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/healthz", handleHealthz)
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go srv.Serve(ln) //nolint:errcheck // Serve returns on Close; nothing to report.
	stop := func() { srv.Close() }
	return ln.Addr().String(), stop, nil
}

// handleHealthz reports liveness on the same debug port as the profiles.
func handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.Write([]byte(`{"status":"ok"}`)) //nolint:errcheck // best-effort debug endpoint
}
