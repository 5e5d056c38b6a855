package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if got := c.Load(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	var g Gauge
	g.Set(2.5)
	g.Add(1.5)
	if got := g.Load(); got != 4 {
		t.Fatalf("gauge = %g, want 4", got)
	}
	g.Max(3)
	if got := g.Load(); got != 4 {
		t.Fatalf("gauge after Max(3) = %g, want 4", got)
	}
	g.Max(7)
	if got := g.Load(); got != 7 {
		t.Fatalf("gauge after Max(7) = %g, want 7", got)
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	const workers, n = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("hits")
			g := r.Gauge("depth")
			for i := 0; i < n; i++ {
				c.Inc()
				g.Add(1)
			}
		}()
	}
	wg.Wait()
	s := r.Snapshot()
	if s["hits"] != workers*n {
		t.Fatalf("hits = %g, want %d", s["hits"], workers*n)
	}
	if s["depth"] != workers*n {
		t.Fatalf("depth = %g, want %d", s["depth"], workers*n)
	}
}

func TestRegistryMergeOrderIndependent(t *testing.T) {
	parts := []Snapshot{
		{"a": 1, "b": 10},
		{"a": 2, "c": 5},
		{"b": 3},
	}
	perms := [][]int{{0, 1, 2}, {2, 1, 0}, {1, 0, 2}}
	var first Snapshot
	for _, p := range perms {
		r := NewRegistry()
		for _, i := range p {
			r.Merge(parts[i])
		}
		s := r.Snapshot()
		if first == nil {
			first = s
			continue
		}
		if fmt.Sprint(s) != fmt.Sprint(first) {
			t.Fatalf("merge order changed totals: %v vs %v", s, first)
		}
	}
	if first["a"] != 3 || first["b"] != 13 || first["c"] != 5 {
		t.Fatalf("unexpected totals %v", first)
	}
}

func TestSnapshotMergeTableJSON(t *testing.T) {
	cur := Snapshot{"x": 4, "same": 7, "new": 1}
	m := Snapshot{"x": 1}.Merge(Snapshot{"x": 2, "y": 3})
	if m["x"] != 3 || m["y"] != 3 {
		t.Fatalf("Merge = %v", m)
	}

	var back map[string]float64
	if err := json.Unmarshal(cur.JSON(), &back); err != nil {
		t.Fatalf("JSON round-trip: %v", err)
	}
	if back["x"] != 4 {
		t.Fatalf("JSON round-trip lost values: %v", back)
	}

}

func TestEventLogNilSafe(t *testing.T) {
	var l *EventLog
	l.Record(1, "k", "d") // must not panic
	l.Recordf(1, "k", "%d", 1)
	if l.Total() != 0 || l.Dropped() != 0 || l.Events() != nil {
		t.Fatal("nil log must read as empty")
	}
	var buf bytes.Buffer
	if err := l.WriteText(&buf); err != nil || buf.Len() != 0 {
		t.Fatalf("nil WriteText: err=%v out=%q", err, buf.String())
	}
}

func TestEventLogRing(t *testing.T) {
	l := NewEventLog(4)
	for i := 1; i <= 10; i++ {
		l.Recordf(uint64(i), "tick", "n=%d", i)
	}
	if l.Total() != 10 || l.Dropped() != 6 {
		t.Fatalf("total=%d dropped=%d", l.Total(), l.Dropped())
	}
	ev := l.Events()
	if len(ev) != 4 {
		t.Fatalf("kept %d events, want 4", len(ev))
	}
	for i, e := range ev {
		if e.Seq != uint64(7+i) {
			t.Fatalf("event %d has seq %d, want %d (chronological order)", i, e.Seq, 7+i)
		}
	}
	var buf bytes.Buffer
	if err := l.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "# 10 events (oldest 6 dropped by ring bound)\n") {
		t.Fatalf("missing drop header:\n%s", out)
	}
	if !strings.Contains(out, "#10 @10 tick n=10") {
		t.Fatalf("missing newest event:\n%s", out)
	}
}

func TestSinkDrain(t *testing.T) {
	s := NewSink(8)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			l := NewEventLog(8)
			for i := 0; i < 5; i++ {
				l.Recordf(uint64(i), "k", "w=%d i=%d", w, i)
			}
			s.Drain(fmt.Sprintf("run%d", w), l)
		}(w)
	}
	wg.Wait()
	if s.Total() != 20 {
		t.Fatalf("sink total = %d, want 20", s.Total())
	}
	if got := len(s.Events()); got != 8 {
		t.Fatalf("sink kept %d, want 8 (ring bound)", got)
	}
	var buf bytes.Buffer
	if err := s.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "dropped by ring bound") {
		t.Fatalf("missing drop header:\n%s", buf.String())
	}

	var nilSink *Sink
	nilSink.Drain("x", NewEventLog(1)) // must not panic
	if nilSink.Total() != 0 || nilSink.Events() != nil {
		t.Fatal("nil sink must read as empty")
	}
}

func TestStartPprof(t *testing.T) {
	addr, stop, err := StartPprof("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	resp, err := http.Get("http://" + addr + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

// TestPprofHealthz: the debug server's /healthz reports liveness on the
// same port as the profiles.
func TestPprofHealthz(t *testing.T) {
	addr, stop, err := StartPprof("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var body struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Status != "ok" {
		t.Errorf("status = %q, want ok", body.Status)
	}
}
