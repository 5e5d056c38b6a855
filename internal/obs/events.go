package obs

import (
	"bufio"
	"fmt"
	"io"
	"sync"
)

// Event is one entry of a simulation's event trace: something the OS or the
// machine did at a simulated instant (a promotion, a shootdown, a PCC dump,
// a compaction, ...).
type Event struct {
	// Seq is the event's position in the full (unbounded) history,
	// starting at 1. Gaps never occur; a ring overwrite drops the oldest
	// events but Seq keeps counting.
	Seq uint64
	// At is the simulated access clock when the event occurred.
	At uint64
	// Kind labels the event class ("promote2m", "shootdown", "pcc.dump").
	Kind string
	// Detail is a free-form description.
	Detail string
}

func (e Event) String() string {
	return fmt.Sprintf("#%d @%d %s %s", e.Seq, e.At, e.Kind, e.Detail)
}

// EventLog is a bounded, ring-buffered event trace. A nil *EventLog is a
// valid no-op log, so instrumentation sites record unconditionally and
// tracing costs nothing when disabled. EventLog is not safe for concurrent
// use — each simulated machine owns one, matching the machine's
// single-goroutine execution model.
type EventLog struct {
	buf   []Event
	total uint64
}

// DefaultEventLogSize is the ring capacity used when tracing is enabled
// without an explicit size.
const DefaultEventLogSize = 4096

// NewEventLog returns a log keeping the most recent capacity events.
func NewEventLog(capacity int) *EventLog {
	if capacity <= 0 {
		capacity = DefaultEventLogSize
	}
	return &EventLog{buf: make([]Event, 0, capacity)}
}

// Record appends an event; the oldest event is dropped once the ring is
// full. No-op on a nil log.
func (l *EventLog) Record(at uint64, kind, detail string) {
	if l == nil {
		return
	}
	l.total++
	e := Event{Seq: l.total, At: at, Kind: kind, Detail: detail}
	if len(l.buf) < cap(l.buf) {
		l.buf = append(l.buf, e)
		return
	}
	// Ring overwrite: slot cycles through the buffer as total grows.
	l.buf[int((l.total-1)%uint64(cap(l.buf)))] = e
}

// Recordf is Record with fmt-style detail formatting. The formatting cost
// is skipped entirely on a nil log.
func (l *EventLog) Recordf(at uint64, kind, format string, args ...interface{}) {
	if l == nil {
		return
	}
	l.Record(at, kind, fmt.Sprintf(format, args...))
}

// Total returns how many events were ever recorded.
func (l *EventLog) Total() uint64 {
	if l == nil {
		return 0
	}
	return l.total
}

// Dropped returns how many events the ring has overwritten.
func (l *EventLog) Dropped() uint64 {
	if l == nil {
		return 0
	}
	return l.total - uint64(len(l.buf))
}

// Events returns the retained events in chronological order.
func (l *EventLog) Events() []Event {
	if l == nil || len(l.buf) == 0 {
		return nil
	}
	out := make([]Event, 0, len(l.buf))
	if len(l.buf) < cap(l.buf) || l.total == uint64(len(l.buf)) {
		return append(out, l.buf...)
	}
	start := int(l.total % uint64(cap(l.buf)))
	out = append(out, l.buf[start:]...)
	return append(out, l.buf[:start]...)
}

// WriteText streams the retained events to w, one per line, preceded by a
// header naming the drop count when the ring overflowed.
func (l *EventLog) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if d := l.Dropped(); d > 0 {
		fmt.Fprintf(bw, "# %d events (oldest %d dropped by ring bound)\n", l.Total(), d)
	}
	for _, e := range l.Events() {
		if _, err := fmt.Fprintln(bw, e.String()); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// TaggedEvent is an event annotated with the simulation run it came from.
type TaggedEvent struct {
	Run string
	Event
}

// Sink aggregates event logs from many concurrent simulations (one grid
// experiment fans out dozens of machines). It is ring-bounded like the
// per-machine logs and safe for concurrent Drain calls. Because pool tasks
// complete in nondeterministic order, the sink's interleaving across runs
// is diagnostic, not part of an experiment's deterministic report.
type Sink struct {
	mu    sync.Mutex
	buf   []TaggedEvent
	total uint64
}

// NewSink returns a sink keeping the most recent capacity events.
func NewSink(capacity int) *Sink {
	if capacity <= 0 {
		capacity = DefaultEventLogSize
	}
	return &Sink{buf: make([]TaggedEvent, 0, capacity)}
}

// Drain appends every retained event of l, tagged with the run name.
// No-op for nil sinks or logs.
func (s *Sink) Drain(run string, l *EventLog) {
	if s == nil || l == nil {
		return
	}
	events := l.Events()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range events {
		s.total++
		te := TaggedEvent{Run: run, Event: e}
		if len(s.buf) < cap(s.buf) {
			s.buf = append(s.buf, te)
			continue
		}
		s.buf[int((s.total-1)%uint64(cap(s.buf)))] = te
	}
}

// Total returns how many events were ever drained into the sink.
func (s *Sink) Total() uint64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}

// Events returns the retained tagged events in drain order.
func (s *Sink) Events() []TaggedEvent {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.buf) == 0 {
		return nil
	}
	out := make([]TaggedEvent, 0, len(s.buf))
	if len(s.buf) < cap(s.buf) || s.total == uint64(len(s.buf)) {
		return append(out, s.buf...)
	}
	start := int(s.total % uint64(cap(s.buf)))
	out = append(out, s.buf[start:]...)
	return append(out, s.buf[:start]...)
}

// WriteText streams the retained events to w, one "run: event" line each.
func (s *Sink) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if s != nil {
		s.mu.Lock()
		total, kept := s.total, len(s.buf)
		s.mu.Unlock()
		if d := total - uint64(kept); d > 0 {
			fmt.Fprintf(bw, "# %d events (oldest %d dropped by ring bound)\n", total, d)
		}
	}
	for _, te := range s.Events() {
		if _, err := fmt.Fprintf(bw, "%s: %s\n", te.Run, te.Event.String()); err != nil {
			return err
		}
	}
	return bw.Flush()
}
