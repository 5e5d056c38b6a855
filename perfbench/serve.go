package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"time"

	"pccsim/internal/daemon"
	"pccsim/internal/experiments"
	"pccsim/internal/obs"
)

// serveMix is the fixed set of small registered experiments the daemon
// clients request. Every client submits each of them once per round, in an
// order drawn from the seed, so the clients' requests overlap in the shared
// trace cache while the work per round stays the same at every seed. An odd
// count keeps the median job inside one experiment's jobs instead of on the
// edge between two.
var serveMix = []string{"fig7", "fig7-50", "figfrag", "figtenant", "ablation-decay"}

// serveJobSeed is the simulation seed of every job. The run seed only draws
// the clients' orders, so the simulated work is the same at every run seed.
const serveJobSeed = 1

// serveClients is the number of closed-loop clients.
const serveClients = 2

// serveOptions sizes every daemon job. Each client's jobs run one at a time
// on one pool worker, so two clients keep both cores busy.
func serveOptions(tiny bool) func(io.Writer) experiments.Options {
	return func(out io.Writer) experiments.Options {
		o := experiments.QuickOptions(out)
		o.Workers = 1
		// Smaller than -quick: a job must take a fraction of a second so a
		// run holds enough jobs for a tail percentile.
		o.Scale = 11
		o.SynthAccesses = 80_000
		o.SynthSizeScale = 0.03
		if tiny {
			o.Scale = 10
			o.SynthAccesses = 40_000
			o.SynthSizeScale = 0.02
			o.Budgets = []float64{0, 100}
		}
		return o
	}
}

// serveSuite drives an in-process daemon behind a loopback HTTP listener.
type serveSuite struct {
	srv    *daemon.Server
	hs     *http.Server
	served chan error
	url    string
	client *http.Client
	orders [][]string // per client: experiment order for each round
}

func serveGrid(seed int64, tiny bool, st *setupStats, spans *spanLog) (*serveSuite, error) {
	srv, err := daemon.New(daemon.Config{BaseOptions: serveOptions(tiny)})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown()
		return nil, err
	}
	s := &serveSuite{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		served: make(chan error, 1),
		url:    "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{}},
	}
	go func() { s.served <- s.hs.Serve(ln) }()

	rng := rand.New(rand.NewSource(seed))
	for c := 0; c < serveClients; c++ {
		order := make([]string, len(serveMix))
		for i, j := range rng.Perm(len(serveMix)) {
			order[i] = serveMix[j]
		}
		s.orders = append(s.orders, order)
	}

	// Warm the dataset and trace caches: one job per experiment, in turn.
	t0 := time.Now()
	for _, name := range serveMix {
		if it, _, _ := s.job(name, nil); it.err != nil {
			s.close()
			return nil, fmt.Errorf("warm-up %s: %w", name, it.err)
		}
	}
	spans.add(0, "warmup", "daemon", t0, time.Since(t0))
	return s, nil
}

// jobPhases splits one job's client-side time.
type jobPhases struct {
	submit, queue, exp, tail, output time.Duration
}

// job submits one experiment, follows its progress stream to the done
// event and fetches the output. The item's time runs from sending the POST
// to reading the done event; the output fetch is timed on its own.
func (s *serveSuite) job(name string, spans *spanLog) (it item, ph jobPhases, counters obs.Snapshot) {
	it.name = name
	t0 := time.Now()
	body, _ := json.Marshal(map[string]any{"experiments": []string{name}, "workers": 1, "seed": serveJobSeed})
	var st struct {
		ID string `json:"id"`
	}
	if err := s.call(http.MethodPost, "/jobs", body, http.StatusAccepted, &st); err != nil {
		it.err = err
		return
	}
	tSubmit := time.Now()

	var tStart, tExp, tDone time.Time
	err := s.stream("/jobs/"+st.ID+"/progress", func(e daemon.Event) (bool, error) {
		switch e.Type {
		case "experiment-start":
			tStart = time.Now()
		case "experiment-done":
			tExp = time.Now()
			counters = obs.Snapshot{}
			if err := json.Unmarshal(e.Obs, &counters); err != nil {
				return false, fmt.Errorf("experiment-done metrics: %w", err)
			}
		case "done":
			tDone = time.Now()
			return true, nil
		case "failed", "stopped":
			return false, fmt.Errorf("job %s %s: %s", st.ID, e.Type, e.Err)
		}
		return false, nil
	})
	if err == nil && tDone.IsZero() {
		// The daemon may end the stream once the job is terminal without
		// having written the done event yet; the job status settles it.
		var js struct {
			State string `json:"state"`
		}
		if err = s.call(http.MethodGet, "/jobs/"+st.ID, nil, http.StatusOK, &js); err == nil && js.State == "done" {
			tDone = time.Now()
		}
	}
	if err == nil && (tStart.IsZero() || tExp.IsZero() || tDone.IsZero()) {
		err = errors.New("progress stream ended before the job was done")
	}
	if err != nil {
		it.err = err
		return
	}
	it.secs = tDone.Sub(t0).Seconds()

	var out bytes.Buffer
	if err := s.call(http.MethodGet, "/jobs/"+st.ID+"/output", nil, http.StatusOK, &out); err != nil {
		it.err = err
		return
	}
	tOut := time.Now()
	it.digest = digest(out.String())
	ph = jobPhases{submit: tSubmit.Sub(t0), queue: tStart.Sub(tSubmit), exp: tExp.Sub(tStart),
		tail: tDone.Sub(tExp), output: tOut.Sub(tDone)}
	if spans != nil {
		id := spans.add(0, "job", name, t0, tDone.Sub(t0))
		spans.add(id, "http.submit", name, t0, ph.submit)
		spans.add(id, "queue", name, tSubmit, ph.queue)
		spans.add(id, "experiment", name, tStart, ph.exp)
		spans.add(0, "http.output", name, tDone, ph.output)
	}
	return it, ph, counters
}

// call performs one request and decodes a JSON reply into v (or copies the
// body when v is a *bytes.Buffer).
func (s *serveSuite) call(method, path string, body []byte, want int, v any) error {
	req, err := http.NewRequest(method, s.url+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(msg))
	}
	if buf, ok := v.(*bytes.Buffer); ok {
		_, err = buf.ReadFrom(resp.Body)
		return err
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// stream reads an NDJSON progress stream, handing each event to fn until fn
// reports it is finished or fails.
func (s *serveSuite) stream(path string, fn func(daemon.Event) (bool, error)) error {
	resp, err := s.client.Get(s.url + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		var e daemon.Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return fmt.Errorf("progress event: %w", err)
		}
		if done, err := fn(e); done || err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return nil
}

// runFigure runs one round: every client submits its jobs one after the
// other (closed loop), all clients concurrently.
func (s *serveSuite) runFigure(traced bool, spans *spanLog) figure {
	if !traced {
		spans = nil
	}
	type result struct {
		it       item
		ph       jobPhases
		counters obs.Snapshot
	}
	results := make([][]result, len(s.orders))
	var wg sync.WaitGroup
	t0 := time.Now()
	for c, order := range s.orders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, name := range order {
				it, ph, counters := s.job(name, spans)
				results[c] = append(results[c], result{it, ph, counters})
			}
		}()
	}
	wg.Wait()
	f := figure{wall: time.Since(t0).Seconds(), counters: obs.Snapshot{}}
	for _, rs := range results {
		for _, r := range rs {
			f.items = append(f.items, r.it)
			f.counters.Merge(r.counters)
			if r.it.err != nil || !traced {
				continue
			}
			l := &f.layers
			l.job += r.it.secs
			l.submit += r.ph.submit.Seconds()
			l.queue += r.ph.queue.Seconds()
			l.exp += r.ph.exp.Seconds()
			l.tail += r.ph.tail.Seconds()
			l.output += r.ph.output.Seconds()
			l.submits = append(l.submits, r.ph.submit.Seconds())
			l.queues = append(l.queues, r.ph.queue.Seconds())
			l.exps = append(l.exps, r.ph.exp.Seconds())
			l.outputs = append(l.outputs, r.ph.output.Seconds())
		}
	}
	f.accesses = uint64(f.counters["machine.accesses"])
	return f
}

// close stops the listener and the daemon and waits for both.
func (s *serveSuite) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if derr := s.srv.Shutdown(); err == nil {
		err = derr
	}
	s.client.CloseIdleConnections()
	return err
}
