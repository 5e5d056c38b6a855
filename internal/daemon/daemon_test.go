package daemon

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"pccsim/internal/experiments"
)

// The daemon is tested against synthetic experiments registered here: a
// deterministic fast one, a failing one, and a gate the test can hold
// closed to freeze a job mid-grid (the only way to exercise the SIGTERM
// checkpoint path deterministically). Registration happens in init, before
// any server goroutine reads the registry, so there is no map race.
func init() {
	experiments.Registry["zz-daemon-quick"] = func(o experiments.Options) error {
		fmt.Fprintf(o.Out, "quick seed=%d workers=%d\n", o.Seed, o.Workers)
		return nil
	}
	experiments.Registry["zz-daemon-quick2"] = func(o experiments.Options) error {
		fmt.Fprintln(o.Out, "quick2 done")
		return nil
	}
	experiments.Registry["zz-daemon-fail"] = func(o experiments.Options) error {
		return fmt.Errorf("synthetic failure")
	}
	experiments.Registry["zz-daemon-gate"] = func(o experiments.Options) error {
		gateMu.Lock()
		started, release := gateStarted, gateRelease
		gateMu.Unlock()
		if started != nil {
			close(started)
		}
		if release != nil {
			<-release
		}
		fmt.Fprintln(o.Out, "gate passed")
		return nil
	}
}

var (
	gateMu      sync.Mutex
	gateStarted chan struct{}
	gateRelease chan struct{}
)

// armGate installs fresh gate channels and returns them: started closes when
// the gate experiment begins, release unblocks it.
func armGate() (started, release chan struct{}) {
	gateMu.Lock()
	defer gateMu.Unlock()
	gateStarted = make(chan struct{})
	gateRelease = make(chan struct{})
	return gateStarted, gateRelease
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.BaseOptions == nil {
		cfg.BaseOptions = experiments.QuickOptions
	}
	cfg.Logf = t.Logf
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// waitState polls until the job reaches want or the deadline passes.
func waitState(t *testing.T, j *job, want string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		j.mu.Lock()
		state := j.state
		j.mu.Unlock()
		if state == want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached state %q", j.id, want)
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

// TestHTTPLifecycle walks the whole API surface over real HTTP: health,
// validation failures, submission, live progress streaming while an
// experiment is in flight, final status, and rendered output.
func TestHTTPLifecycle(t *testing.T) {
	s := newTestServer(t, Config{})
	defer s.Shutdown()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var health map[string]any
	if code := getJSON(t, ts.URL+"/healthz", &health); code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	if health["status"] != "ok" {
		t.Fatalf("healthz body: %v", health)
	}

	// Invalid submissions are 400s with a reason.
	for _, body := range []string{
		`{"experiments":[]}`,
		`{"experiments":["no-such-experiment"]}`,
		`{"experiments":["zz-daemon-quick","zz-daemon-quick"]}`,
		`not json`,
	} {
		resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("submit %q: got %d, want 400", body, resp.StatusCode)
		}
	}
	if code := getJSON(t, ts.URL+"/jobs/nope", nil); code != http.StatusNotFound {
		t.Fatalf("missing job: got %d, want 404", code)
	}

	started, release := armGate()
	resp, err := http.Post(ts.URL+"/jobs", "application/json",
		strings.NewReader(`{"experiments":["zz-daemon-quick","zz-daemon-gate"],"seed":42,"workers":2}`))
	if err != nil {
		t.Fatal(err)
	}
	var st status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || st.ID != "job-1" {
		t.Fatalf("submit: %d %+v", resp.StatusCode, st)
	}
	<-started

	// Output is refused while the job is running.
	if code := getJSON(t, ts.URL+"/jobs/job-1/output", nil); code != http.StatusConflict {
		t.Fatalf("output of running job: got %d, want 409", code)
	}

	// The progress stream delivers everything emitted so far while the gate
	// is still holding the second experiment open — proving it streams live
	// rather than waiting for the job to finish.
	progResp, err := http.Get(ts.URL + "/jobs/job-1/progress")
	if err != nil {
		t.Fatal(err)
	}
	defer progResp.Body.Close()
	sc := bufio.NewScanner(progResp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	readEvent := func() Event {
		t.Helper()
		if !sc.Scan() {
			t.Fatalf("progress stream ended early: %v", sc.Err())
		}
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad progress line %q: %v", sc.Text(), err)
		}
		return e
	}
	for i, want := range []string{"queued", "experiment-start", "experiment-done", "experiment-start"} {
		if e := readEvent(); e.Type != want {
			t.Fatalf("event %d: got %q, want %q", i, e.Type, want)
		}
	}
	close(release)
	gateDone := readEvent()
	if gateDone.Type != "experiment-done" || gateDone.Experiment != "zz-daemon-gate" {
		t.Fatalf("after release: %+v", gateDone)
	}
	if len(gateDone.Obs) == 0 {
		t.Fatal("experiment-done event carries no obs snapshot")
	}
	if e := readEvent(); e.Type != "done" {
		t.Fatalf("final event: %+v", e)
	}
	if sc.Scan() {
		t.Fatalf("stream continued past terminal event: %q", sc.Text())
	}

	var final status
	getJSON(t, ts.URL+"/jobs/job-1", &final)
	if final.State != "done" || len(final.Completed) != 2 || len(final.Pending) != 0 {
		t.Fatalf("final status: %+v", final)
	}
	out, err := http.Get(ts.URL + "/jobs/job-1/output")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(out.Body)
	out.Body.Close()
	if want := "quick seed=42 workers=2\ngate passed\n"; string(text) != want {
		t.Fatalf("output %q, want %q", text, want)
	}

	var list []status
	getJSON(t, ts.URL+"/jobs", &list)
	if len(list) != 1 || list[0].ID != "job-1" {
		t.Fatalf("job list: %+v", list)
	}
}

// TestFailedJob pins failure semantics: the job stops at the failing
// experiment, keeps earlier outputs, and reports the error.
func TestFailedJob(t *testing.T) {
	s := newTestServer(t, Config{})
	defer s.Shutdown()
	j, err := s.Submit(submitRequest{Experiments: []string{"zz-daemon-quick", "zz-daemon-fail", "zz-daemon-quick2"}})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, "failed")
	st := j.status()
	if st.Error == "" || !strings.Contains(st.Error, "synthetic failure") {
		t.Fatalf("failure not reported: %+v", st)
	}
	if len(st.Completed) != 1 || st.Completed[0] != "zz-daemon-quick" {
		t.Fatalf("completed: %v", st.Completed)
	}
	if len(st.Pending) != 2 {
		t.Fatalf("pending: %v", st.Pending)
	}
}

// TestPanickingJobFails submits a job whose experiment panics, as a violated
// invariant inside a simulation would. The job must end failed with the
// panic text on its failed event, and the daemon must keep serving: health
// checks answer and the next job completes.
func TestPanickingJobFails(t *testing.T) {
	// Registered before the server starts and removed after it stops, so
	// no server goroutine reads the registry while it changes.
	experiments.Registry["zz-daemon-panic"] = func(experiments.Options) error { panic("boom") }
	defer delete(experiments.Registry, "zz-daemon-panic")
	s := newTestServer(t, Config{})
	defer s.Shutdown()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	bad, err := s.Submit(submitRequest{Experiments: []string{"zz-daemon-panic", "zz-daemon-quick"}})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, bad, "failed")
	bad.mu.Lock()
	last := bad.events[len(bad.events)-1]
	bad.mu.Unlock()
	if last.Type != "failed" || last.Experiment != "zz-daemon-panic" || !strings.Contains(last.Err, "boom") {
		t.Fatalf("failed event does not carry the panic: %+v", last)
	}
	if code := getJSON(t, ts.URL+"/healthz", nil); code != http.StatusOK {
		t.Fatalf("healthz after a panicking job: %d", code)
	}
	next, err := s.Submit(submitRequest{Experiments: []string{"zz-daemon-quick"}})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, next, "done")
}

// TestTerminalStateCarriesItsEvent is the regression test for the
// terminal-event race: runJob used to publish a terminal state and append
// that state's event under two separate acquisitions of the job lock, so a
// /progress stream taking the lock in between saw a finished job with no
// terminal event and ended without it. Three observers take the job lock in
// turns and hold it longer than sync.Mutex's 1ms starvation threshold,
// which puts the mutex into FIFO hand-off mode: each time runJob unlocks,
// a queued observer gets the lock before runJob can take it again, so some
// observer looks between every pair of runJob's critical sections. All
// three terminal paths run: done, failed, and stopped by a shutdown.
func TestTerminalStateCarriesItsEvent(t *testing.T) {
	for _, tc := range []struct{ exp, want string }{
		{"zz-daemon-quick", "done"},
		{"zz-daemon-fail", "failed"},
		{"zz-daemon-quick", "stopped"},
	} {
		s := newTestServer(t, Config{})
		started, release := armGate()
		j, err := s.Submit(submitRequest{Experiments: []string{"zz-daemon-gate", tc.exp}})
		if err != nil {
			t.Fatal(err)
		}
		<-started
		if tc.want == "stopped" {
			s.cancel() // the job stops at its next experiment boundary
		}
		if bad := observeTerminal(j, release); len(bad) > 0 {
			t.Errorf("%s: terminal state seen before its event: %v", tc.want, bad)
		}
		if st := j.status(); st.State != tc.want {
			t.Errorf("job ended %q, want %q", st.State, tc.want)
		}
		s.Shutdown()
	}
}

// observeTerminal runs the observers until each has seen j in a terminal
// state; the observers release the gate once they have taken the lock nine
// times, by which point the mutex is starving. It returns every "state/last
// event" pair an observer saw where the last event does not announce the
// terminal state.
func observeTerminal(j *job, release chan struct{}) []string {
	var wg sync.WaitGroup
	var mu sync.Mutex
	var bad []string
	rounds := 0 // guarded by j.mu
	for o := 0; o < 3; o++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				j.mu.Lock()
				state, terminal := j.state, j.terminal()
				last := j.events[len(j.events)-1].Type
				if rounds++; rounds == 9 {
					close(release)
				}
				// Holding the lock past 1ms is what makes waiters starve.
				time.Sleep(2 * time.Millisecond)
				j.mu.Unlock()
				if !terminal {
					continue
				}
				if last != state {
					mu.Lock()
					bad = append(bad, state+"/"+last)
					mu.Unlock()
				}
				return
			}
		}()
	}
	wg.Wait()
	return bad
}

// TestShutdownCheckpointResume is the SIGTERM drill: a daemon is torn down
// while a job is mid-grid, checkpoints, and a fresh daemon resuming from
// the file finishes exactly the pending work — completed experiments keep
// their outputs without rerunning, and job IDs continue past the old ones.
func TestShutdownCheckpointResume(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "grid.json")

	s1 := newTestServer(t, Config{CheckpointPath: ckpt})
	started, release := armGate()
	j1, err := s1.Submit(submitRequest{
		Experiments: []string{"zz-daemon-quick", "zz-daemon-gate", "zz-daemon-quick2"},
		Seed:        7,
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started

	// Cancel first (the SIGTERM), then let the in-flight experiment finish:
	// the daemon must complete it, record its output, and stop before the
	// third — experiment-granularity checkpointing.
	s1.cancel()
	close(release)
	if err := s1.Shutdown(); err != nil {
		t.Fatal(err)
	}
	waitState(t, j1, "stopped")

	raw, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatalf("no checkpoint written: %v", err)
	}
	var ck checkpointFile
	if err := json.Unmarshal(raw, &ck); err != nil {
		t.Fatal(err)
	}
	if ck.Version != CheckpointVersion || len(ck.Jobs) != 1 {
		t.Fatalf("checkpoint: %+v", ck)
	}
	jc := ck.Jobs[0]
	if jc.State != "stopped" || len(jc.Done) != 2 {
		t.Fatalf("checkpointed job: state %q, done %v", jc.State, jc.Done)
	}
	if _, ok := jc.Done["zz-daemon-quick2"]; ok {
		t.Fatal("experiment past the stop point leaked into the checkpoint")
	}

	// Checkpoint writes are deterministic for a given grid state.
	if err := s1.writeCheckpoint(ckpt + ".again"); err != nil {
		t.Fatal(err)
	}
	raw2, _ := os.ReadFile(ckpt + ".again")
	if !bytes.Equal(raw, raw2) {
		t.Fatal("checkpoint bytes are not deterministic")
	}

	// Restart: the stopped job resumes and only the pending experiment runs
	// (the gate is NOT armed — if the daemon re-ran it, it would close nil
	// channels and panic-free block forever; finishing proves the skip).
	s2 := newTestServer(t, Config{CheckpointPath: ckpt, Resume: true})
	s2.mu.Lock()
	j2 := s2.jobs["job-1"]
	s2.mu.Unlock()
	if j2 == nil {
		t.Fatal("job-1 not restored")
	}
	waitState(t, j2, "done")
	st := j2.status()
	if len(st.Completed) != 3 {
		t.Fatalf("resumed job incomplete: %+v", st)
	}
	j2.mu.Lock()
	output := j2.done["zz-daemon-quick"] + j2.done["zz-daemon-gate"] + j2.done["zz-daemon-quick2"]
	j2.mu.Unlock()
	if want := "quick seed=7 workers=0\ngate passed\nquick2 done\n"; output != want {
		t.Fatalf("resumed output %q, want %q", output, want)
	}

	// New submissions continue the ID sequence past the restored jobs.
	j3, err := s2.Submit(submitRequest{Experiments: []string{"zz-daemon-quick"}})
	if err != nil {
		t.Fatal(err)
	}
	if j3.id != "job-2" {
		t.Fatalf("resumed daemon issued id %q, want job-2", j3.id)
	}
	waitState(t, j3, "done")
	if err := s2.Shutdown(); err != nil {
		t.Fatal(err)
	}

	// A third daemon finds only finished work: nothing re-enqueues, and the
	// done job's output is immediately servable.
	s3 := newTestServer(t, Config{CheckpointPath: ckpt, Resume: true})
	defer s3.Shutdown()
	s3.mu.Lock()
	restored := s3.jobs["job-1"]
	s3.mu.Unlock()
	if restored == nil || restored.state != "done" {
		t.Fatalf("finished job did not restore as done: %+v", restored)
	}
}

// TestResumeRejectsBadCheckpoints pins the failure modes: corrupt JSON,
// wrong version, and unknown experiment names are hard errors (a daemon
// must not silently drop a grid), while a missing file is a clean first
// boot.
func TestResumeRejectsBadCheckpoints(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		name string
		body string
	}{
		{"corrupt", `{"version":`},
		{"version", `{"version":99,"jobs":[]}`},
		{"unknown-experiment", `{"version":1,"jobs":[{"id":"job-1","experiments":["gone"],"state":"stopped"}]}`},
	}
	for _, c := range cases {
		path := filepath.Join(dir, c.name+".json")
		if err := os.WriteFile(path, []byte(c.body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := New(Config{CheckpointPath: path, Resume: true}); err == nil {
			t.Errorf("%s checkpoint accepted", c.name)
		}
	}
	s, err := New(Config{CheckpointPath: filepath.Join(dir, "absent.json"), Resume: true})
	if err != nil {
		t.Fatalf("missing checkpoint must be a clean first boot: %v", err)
	}
	s.Shutdown()
}

// miniOptions shrinks the quick configuration to a sub-second fig1 so the
// trace-cache test can run real experiments.
func miniOptions(out io.Writer) experiments.Options {
	o := experiments.QuickOptions(out)
	o.Scale = 10
	o.SynthAccesses = 20_000
	o.SynthSizeScale = 0.02
	o.Interval = 5_000
	o.PhysBytes = 256 << 20
	return o
}

// TestConcurrentJobsShareTraceCache submits the same real experiment grid
// from several clients at once: all jobs complete with identical output,
// and because every job shares the process-wide trace cache, a later
// identical job generates zero new stream recordings.
func TestConcurrentJobsShareTraceCache(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real (miniature) experiments")
	}
	s := newTestServer(t, Config{BaseOptions: miniOptions})
	defer s.Shutdown()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const clients = 3
	ids := make([]string, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/jobs", "application/json",
				strings.NewReader(`{"experiments":["fig1"]}`))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var st status
			if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
				t.Error(err)
				return
			}
			ids[i] = st.ID
		}(i)
	}
	wg.Wait()

	outputs := make([]string, clients)
	for i, id := range ids {
		if id == "" {
			t.Fatal("submission failed")
		}
		s.mu.Lock()
		j := s.jobs[id]
		s.mu.Unlock()
		waitState(t, j, "done")
		j.mu.Lock()
		outputs[i] = j.done["fig1"]
		j.mu.Unlock()
	}
	for i := 1; i < clients; i++ {
		if outputs[i] != outputs[0] {
			t.Fatalf("concurrent jobs diverged:\n%s\nvs\n%s", outputs[0], outputs[i])
		}
	}
	if outputs[0] == "" {
		t.Fatal("fig1 produced no output")
	}

	recs, cacheBytes := experiments.TraceCacheStats()
	if recs == 0 || cacheBytes == 0 {
		t.Fatalf("trace cache empty after real runs: %d recordings, %d bytes", recs, cacheBytes)
	}
	// One more identical job: everything replays from the shared cache, so
	// the recording count must not move.
	j, err := s.Submit(submitRequest{Experiments: []string{"fig1"}})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, "done")
	after, _ := experiments.TraceCacheStats()
	if after != recs {
		t.Fatalf("later identical job grew the cache: %d -> %d recordings (streams were regenerated, not shared)", recs, after)
	}
	var health map[string]any
	getJSON(t, ts.URL+"/healthz", &health)
	if health["tracecache_streams"].(float64) <= 0 {
		t.Fatalf("healthz does not surface cache stats: %v", health)
	}
}
