// Package daemon is the pccsim -serve mode: a long-running HTTP server
// that accepts experiment-grid requests, runs them through the experiments
// registry, and streams progress (per-experiment observability snapshots)
// to clients. All concurrent jobs run in one process, so they share the
// process-wide trace record/replay cache — a grid's streams are generated
// once no matter how many clients ask for overlapping experiments.
//
// The daemon is crash-tolerant at experiment granularity: on shutdown
// (SIGTERM in the CLI wiring) it checkpoints every job's completed
// experiment outputs and pending names to a JSON file; a daemon restarted
// with the same checkpoint path resumes the pending work and serves the
// completed outputs as if the restart never happened. Experiment results
// are deterministic, so an experiment interrupted mid-run simply reruns on
// resume with identical output.
//
// API:
//
//	POST /jobs              {"experiments": ["fig1","fig5"], "workers": 4, "seed": 7}
//	                        -> 202 {"id": "job-1", ...}
//	GET  /jobs              -> list of job statuses
//	GET  /jobs/<id>         -> one job's status
//	GET  /jobs/<id>/output  -> rendered reports (200 once the job is done)
//	GET  /jobs/<id>/progress-> NDJSON event stream, one JSON object per
//	                           line, ending when the job reaches a terminal
//	                           state; each experiment-done event embeds the
//	                           run's merged metrics snapshot
//	GET  /healthz           -> {"status":"ok", ...}
package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"pccsim/internal/experiments"
	"pccsim/internal/obs"
)

// CheckpointVersion versions the grid checkpoint file; a daemon refuses a
// file written by an incompatible layout rather than resuming garbage.
const CheckpointVersion = 1

// Config configures a Server.
type Config struct {
	// BaseOptions builds the experiments.Options every job starts from,
	// writing the report to the given writer. Nil uses experiments.
	// QuickOptions. Per-request workers/seed override the result.
	BaseOptions func(out io.Writer) experiments.Options
	// CheckpointPath, when non-empty, is where Shutdown writes the grid
	// checkpoint and where New (with Resume) reads it back.
	CheckpointPath string
	// Resume loads CheckpointPath at construction: completed outputs are
	// served, pending experiments re-enqueue. A missing file is not an
	// error (first boot); a corrupt one is.
	Resume bool
	// Logf receives operational log lines (nil discards them).
	Logf func(format string, args ...any)
}

// Event is one line of a job's progress stream.
type Event struct {
	Type       string          `json:"type"` // queued | experiment-start | experiment-done | done | failed | stopped
	Job        string          `json:"job"`
	Experiment string          `json:"experiment,omitempty"`
	ElapsedMS  int64           `json:"elapsed_ms,omitempty"`
	Obs        json.RawMessage `json:"obs,omitempty"`
	Err        string          `json:"error,omitempty"`
}

// job is one requested experiment grid.
type job struct {
	id      string
	names   []string
	workers int
	seed    int64

	mu      sync.Mutex
	state   string            // queued | running | done | failed | stopped
	done    map[string]string // experiment -> rendered output
	failure string
	events  []Event
	waiters []chan struct{} // closed (and cleared) on every event append
}

// emit appends e to the progress stream and wakes every waiter. A terminal
// event (done, failed, stopped) also moves the job into the state of the
// same name, in the same critical section: handleProgress ends a stream as
// soon as it sees a terminal state, so that state's event must already be
// in the log when it does.
func (j *job) emit(e Event) {
	j.mu.Lock()
	if isTerminal(e.Type) {
		j.state = e.Type
	}
	j.events = append(j.events, e)
	ws := j.waiters
	j.waiters = nil
	j.mu.Unlock()
	for _, w := range ws {
		close(w)
	}
}

func (j *job) setState(state string) {
	j.mu.Lock()
	j.state = state
	j.mu.Unlock()
}

// terminal reports whether the job has stopped making progress.
func (j *job) terminal() bool { return isTerminal(j.state) }

// isTerminal reports whether a job state (or the event announcing it) ends
// the job's progress.
func isTerminal(state string) bool {
	switch state {
	case "done", "failed", "stopped":
		return true
	}
	return false
}

// status is the JSON shape of GET /jobs and GET /jobs/<id>.
type status struct {
	ID          string   `json:"id"`
	State       string   `json:"state"`
	Experiments []string `json:"experiments"`
	Completed   []string `json:"completed"`
	Pending     []string `json:"pending"`
	Error       string   `json:"error,omitempty"`
}

func (j *job) status() status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := status{ID: j.id, State: j.state, Experiments: j.names, Error: j.failure}
	for _, n := range j.names {
		if _, ok := j.done[n]; ok {
			st.Completed = append(st.Completed, n)
		} else {
			st.Pending = append(st.Pending, n)
		}
	}
	return st
}

// Server is the daemon. Construct with New, expose Handler over HTTP (or
// httptest), and call Shutdown to stop workers and write the checkpoint.
type Server struct {
	cfg    Config
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu     sync.Mutex
	jobs   map[string]*job
	order  []string
	nextID int
}

// New builds a Server, resuming a prior grid checkpoint when configured.
func New(cfg Config) (*Server, error) {
	if cfg.BaseOptions == nil {
		cfg.BaseOptions = experiments.QuickOptions
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{cfg: cfg, ctx: ctx, cancel: cancel, jobs: map[string]*job{}, nextID: 1}
	if cfg.Resume && cfg.CheckpointPath != "" {
		if err := s.loadCheckpoint(cfg.CheckpointPath); err != nil {
			cancel()
			return nil, err
		}
	}
	return s, nil
}

// submitRequest is the POST /jobs body.
type submitRequest struct {
	Experiments []string `json:"experiments"`
	Workers     int      `json:"workers"`
	Seed        int64    `json:"seed"`
}

// Submit validates and enqueues a grid, returning its job. Exposed for the
// CLI and tests; the HTTP handler goes through it too.
func (s *Server) Submit(req submitRequest) (*job, error) {
	if len(req.Experiments) == 0 {
		return nil, fmt.Errorf("daemon: no experiments requested")
	}
	if req.Workers < 0 {
		return nil, fmt.Errorf("daemon: workers must be >= 0")
	}
	seen := map[string]bool{}
	for _, n := range req.Experiments {
		if _, ok := experiments.Registry[n]; !ok {
			return nil, fmt.Errorf("daemon: unknown experiment %q", n)
		}
		if seen[n] {
			return nil, fmt.Errorf("daemon: experiment %q requested twice", n)
		}
		seen[n] = true
	}
	s.mu.Lock()
	select {
	case <-s.ctx.Done():
		s.mu.Unlock()
		return nil, fmt.Errorf("daemon: shutting down")
	default:
	}
	j := &job{
		id:      fmt.Sprintf("job-%d", s.nextID),
		names:   append([]string(nil), req.Experiments...),
		workers: req.Workers,
		seed:    req.Seed,
		state:   "queued",
		done:    map[string]string{},
	}
	s.nextID++
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.wg.Add(1)
	s.mu.Unlock()

	j.emit(Event{Type: "queued", Job: j.id})
	go s.runJob(j)
	return j, nil
}

// runJob executes the grid sequentially, skipping experiments a resumed
// checkpoint already completed. Concurrent jobs share the process-wide
// trace cache, so overlapping grids generate each access stream once.
func (s *Server) runJob(j *job) {
	defer s.wg.Done()
	j.setState("running")
	start := time.Now()
	for _, name := range j.names {
		j.mu.Lock()
		_, alreadyDone := j.done[name]
		j.mu.Unlock()
		if alreadyDone {
			continue
		}
		select {
		case <-s.ctx.Done():
			j.emit(Event{Type: "stopped", Job: j.id, ElapsedMS: time.Since(start).Milliseconds()})
			s.cfg.Logf("daemon: %s stopped with experiments pending (checkpointable)", j.id)
			return
		default:
		}

		j.emit(Event{Type: "experiment-start", Job: j.id, Experiment: name})
		var buf bytes.Buffer
		o := s.cfg.BaseOptions(&buf)
		o.Obs = obs.NewRegistry()
		if j.workers > 0 {
			o.Workers = j.workers
		}
		if j.seed != 0 {
			o.Seed = j.seed
		}
		if err := runExperiment(name, o); err != nil {
			j.mu.Lock()
			j.failure = fmt.Sprintf("%s: %v", name, err)
			j.mu.Unlock()
			j.emit(Event{Type: "failed", Job: j.id, Experiment: name, Err: err.Error()})
			s.cfg.Logf("daemon: %s failed at %s: %v", j.id, name, err)
			return
		}
		j.mu.Lock()
		j.done[name] = buf.String()
		j.mu.Unlock()
		j.emit(Event{
			Type:       "experiment-done",
			Job:        j.id,
			Experiment: name,
			ElapsedMS:  time.Since(start).Milliseconds(),
			Obs:        json.RawMessage(o.Obs.Snapshot().JSON()),
		})
	}
	j.emit(Event{Type: "done", Job: j.id, ElapsedMS: time.Since(start).Milliseconds()})
}

// runExperiment runs one experiment of a job. A panic, which is a violated
// invariant inside a simulation, becomes the experiment's error: the job
// fails with the panic text, while the daemon, its other jobs and the
// shutdown checkpoint carry on.
func runExperiment(name string, o experiments.Options) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return experiments.Run(name, o)
}

// Shutdown stops accepting jobs, waits for running jobs to reach an
// experiment boundary (they observe the cancelled context), and writes the
// grid checkpoint. Safe to call more than once.
func (s *Server) Shutdown() error {
	s.cancel()
	s.wg.Wait()
	if s.cfg.CheckpointPath == "" {
		return nil
	}
	if err := s.writeCheckpoint(s.cfg.CheckpointPath); err != nil {
		return fmt.Errorf("daemon: writing checkpoint: %w", err)
	}
	return nil
}

// checkpointFile is the on-disk grid state. encoding/json writes map keys
// sorted, so the file is deterministic for a given grid state.
type checkpointFile struct {
	Version int             `json:"version"`
	NextID  int             `json:"next_id"`
	Jobs    []jobCheckpoint `json:"jobs"`
}

type jobCheckpoint struct {
	ID          string            `json:"id"`
	Experiments []string          `json:"experiments"`
	Workers     int               `json:"workers,omitempty"`
	Seed        int64             `json:"seed,omitempty"`
	State       string            `json:"state"`
	Failure     string            `json:"failure,omitempty"`
	Done        map[string]string `json:"done,omitempty"`
}

func (s *Server) writeCheckpoint(path string) error {
	s.mu.Lock()
	ck := checkpointFile{Version: CheckpointVersion, NextID: s.nextID}
	for _, id := range s.order {
		j := s.jobs[id]
		j.mu.Lock()
		jc := jobCheckpoint{
			ID:          j.id,
			Experiments: append([]string(nil), j.names...),
			Workers:     j.workers,
			Seed:        j.seed,
			State:       j.state,
			Failure:     j.failure,
			Done:        map[string]string{},
		}
		for k, v := range j.done {
			jc.Done[k] = v
		}
		j.mu.Unlock()
		ck.Jobs = append(ck.Jobs, jc)
	}
	s.mu.Unlock()

	data, err := json.MarshalIndent(ck, "", "  ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// loadCheckpoint restores jobs from a prior daemon's checkpoint: completed
// jobs are served as-is; jobs with pending experiments re-enqueue and
// continue where the grid left off.
func (s *Server) loadCheckpoint(path string) error {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil // first boot
	}
	if err != nil {
		return err
	}
	var ck checkpointFile
	if err := json.Unmarshal(data, &ck); err != nil {
		return fmt.Errorf("daemon: corrupt checkpoint %s: %w", path, err)
	}
	if ck.Version != CheckpointVersion {
		return fmt.Errorf("daemon: checkpoint %s has version %d, want %d", path, ck.Version, CheckpointVersion)
	}
	for _, jc := range ck.Jobs {
		for _, n := range jc.Experiments {
			if _, ok := experiments.Registry[n]; !ok {
				return fmt.Errorf("daemon: checkpoint job %s references unknown experiment %q", jc.ID, n)
			}
		}
		j := &job{
			id:      jc.ID,
			names:   append([]string(nil), jc.Experiments...),
			workers: jc.Workers,
			seed:    jc.Seed,
			state:   jc.State,
			failure: jc.Failure,
			done:    map[string]string{},
		}
		for k, v := range jc.Done {
			j.done[k] = v
		}
		s.jobs[j.id] = j
		s.order = append(s.order, j.id)
		// "stopped" is terminal within one daemon's life but is precisely
		// the state a SIGTERM checkpoint leaves behind; it resumes here.
		if j.state != "done" && j.state != "failed" {
			j.state = "queued"
			j.emit(Event{Type: "queued", Job: j.id})
			// Log before runJob starts: it writes j.done.
			s.cfg.Logf("daemon: resumed %s (%d of %d experiments done)", j.id, len(j.done), len(j.names))
			s.wg.Add(1)
			go s.runJob(j)
		}
	}
	if ck.NextID > s.nextID {
		s.nextID = ck.NextID
	}
	return nil
}

// Handler returns the daemon's HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealth)
	mux.HandleFunc("/jobs", s.handleJobs)
	mux.HandleFunc("/jobs/", s.handleJob)
	return mux
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	n := len(s.jobs)
	s.mu.Unlock()
	recs, cacheBytes := experiments.TraceCacheStats()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":             "ok",
		"jobs":               n,
		"tracecache_streams": recs,
		"tracecache_blocks":  experiments.TraceCacheBlocks(),
		"tracecache_bytes":   cacheBytes,
	})
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		var req submitRequest
		if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]any{"error": fmt.Sprintf("bad request body: %v", err)})
			return
		}
		j, err := s.Submit(req)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]any{"error": err.Error()})
			return
		}
		writeJSON(w, http.StatusAccepted, j.status())
	case http.MethodGet:
		s.mu.Lock()
		ids := append([]string(nil), s.order...)
		s.mu.Unlock()
		sort.Strings(ids)
		out := make([]status, 0, len(ids))
		for _, id := range ids {
			s.mu.Lock()
			j := s.jobs[id]
			s.mu.Unlock()
			out = append(out, j.status())
		}
		writeJSON(w, http.StatusOK, out)
	default:
		w.WriteHeader(http.StatusMethodNotAllowed)
	}
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.WriteHeader(http.StatusMethodNotAllowed)
		return
	}
	rest := strings.TrimPrefix(r.URL.Path, "/jobs/")
	id, sub := rest, ""
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		id, sub = rest[:i], rest[i+1:]
	}
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		writeJSON(w, http.StatusNotFound, map[string]any{"error": "no such job"})
		return
	}
	switch sub {
	case "":
		writeJSON(w, http.StatusOK, j.status())
	case "output":
		s.handleOutput(w, j)
	case "progress":
		s.handleProgress(w, r, j)
	default:
		writeJSON(w, http.StatusNotFound, map[string]any{"error": "no such resource"})
	}
}

func (s *Server) handleOutput(w http.ResponseWriter, j *job) {
	j.mu.Lock()
	state := j.state
	var out strings.Builder
	for _, n := range j.names {
		if text, ok := j.done[n]; ok {
			out.WriteString(text)
		}
	}
	j.mu.Unlock()
	if state != "done" {
		writeJSON(w, http.StatusConflict, map[string]any{"error": fmt.Sprintf("job is %s, not done", state)})
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, out.String())
}

// handleProgress streams the job's events as NDJSON: everything emitted so
// far immediately, then live events until the job reaches a terminal state
// or the client disconnects.
func (s *Server) handleProgress(w http.ResponseWriter, r *http.Request, j *job) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	next := 0
	for {
		j.mu.Lock()
		events := j.events[next:]
		next = len(j.events)
		terminal := j.terminal()
		var wait chan struct{}
		if len(events) == 0 && !terminal {
			wait = make(chan struct{})
			j.waiters = append(j.waiters, wait)
		}
		j.mu.Unlock()

		for _, e := range events {
			if err := enc.Encode(e); err != nil {
				return
			}
		}
		if flusher != nil {
			flusher.Flush()
		}
		if wait == nil {
			if terminal {
				return
			}
			continue
		}
		select {
		case <-wait:
		case <-r.Context().Done():
			return
		case <-s.ctx.Done():
			// Drain whatever the shutdown emitted, then finish.
		}
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// ListenAndServe runs the daemon at addr until ctx is cancelled (the CLI
// wires SIGTERM/SIGINT into that), then checkpoints and shuts down cleanly.
// The listener binds before serving, so addr may use port 0; the resolved
// address is logged.
func (s *Server) ListenAndServe(ctx context.Context, addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.cfg.Logf("daemon: listening on %s", ln.Addr())
	srv := &http.Server{Handler: s.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		s.Shutdown()
		return err
	case <-ctx.Done():
	}
	s.cfg.Logf("daemon: signal received; checkpointing and shutting down")
	shutdownErr := s.Shutdown()
	sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil && shutdownErr == nil {
		shutdownErr = err
	}
	return shutdownErr
}
