// Package ctrace implements the paper's two-step evaluation methodology
// (§4): the offline simulation records every PCC-recommended promotion with
// its timestamp into a candidate trace file; a separate run then replays
// the trace, promoting the same regions at the same points in execution "as
// if real hardware provided the data".
//
// In the paper, step one is a Pin-based TLB+PCC simulation and step two a
// real Linux kernel; here both steps run on the simulator, which makes the
// round trip exactly reproducible and lets the test suite verify that a
// replayed trace reproduces the live run's behaviour.
package ctrace

import (
	"bufio"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"pccsim/internal/mem"
	"pccsim/internal/vmm"
)

// Trace is a recorded promotion-candidate schedule.
type Trace struct {
	// Events are sorted by AtAccess.
	Events []vmm.PromotionEvent
}

// FromMachine captures the candidate trace of a completed run.
func FromMachine(m *vmm.Machine) *Trace {
	ev := m.PromotionLog()
	sort.Slice(ev, func(i, j int) bool { return ev[i].AtAccess < ev[j].AtAccess })
	return &Trace{Events: ev}
}

// Write serializes the trace as JSON lines (one event per line, greppable
// and diff-friendly).
func (t *Trace) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, e := range t.Events {
		if err := enc.Encode(e); err != nil {
			return fmt.Errorf("ctrace: %w", err)
		}
	}
	return bw.Flush()
}

// Read parses a trace written by Write.
func Read(r io.Reader) (*Trace, error) {
	t := &Trace{}
	dec := json.NewDecoder(bufio.NewReader(r))
	for {
		var e vmm.PromotionEvent
		if err := dec.Decode(&e); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("ctrace: %w", err)
		}
		t.Events = append(t.Events, e)
	}
	sort.Slice(t.Events, func(i, j int) bool { return t.Events[i].AtAccess < t.Events[j].AtAccess })
	return t, nil
}

// Save writes the trace to a file.
func (t *Trace) Save(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("ctrace: %w", err)
	}
	err = t.Write(f)
	if cerr := f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("ctrace: %w", cerr)
	}
	return err
}

// Load reads a trace from a file.
func Load(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("ctrace: %w", err)
	}
	defer f.Close()
	return Read(f)
}

// ReplayPolicy is a vmm.Policy that performs the recorded promotions at the
// recorded execution points — the paper's step two, where "the candidate
// addresses identified by the PCC are used by the OS promotion logic at the
// correct time during workload execution". Run it with a small promotion
// interval so replay timing is faithful.
type ReplayPolicy struct {
	trace *Trace
	next  int
}

// NewReplayPolicy builds the policy over a recorded trace.
func NewReplayPolicy(t *Trace) *ReplayPolicy {
	return &ReplayPolicy{trace: t}
}

// Name implements vmm.Policy.
func (r *ReplayPolicy) Name() string { return "replay" }

// BaseFaultOnly marks the fault path as base-pages-only, letting the
// machine devirtualize it (vmm.BaseFaultOnly).
func (r *ReplayPolicy) BaseFaultOnly() {}

// OnFault implements vmm.Policy: base pages at fault time, as in the live
// PCC configuration.
func (r *ReplayPolicy) OnFault(*vmm.Machine, *vmm.Process, mem.VirtAddr) mem.PageSize {
	return mem.Page4K
}

// Tick implements vmm.Policy: promote every recorded event whose timestamp
// has been reached.
func (r *ReplayPolicy) Tick(m *vmm.Machine) {
	now := m.Now()
	for r.next < len(r.trace.Events) && r.trace.Events[r.next].AtAccess <= now {
		e := r.trace.Events[r.next]
		r.next++
		p := procByID(m, e.ProcID)
		if p == nil {
			continue
		}
		// Refusals (already huge, not yet touched) are expected when the
		// replayed machine diverges slightly; skip and continue.
		_ = m.Promote2M(p, e.Base)
	}
}

// Remaining reports how many events have not fired yet (diagnostics).
func (r *ReplayPolicy) Remaining() int { return len(r.trace.Events) - r.next }

func init() { gob.Register(ReplayState{}) }

// ReplayState is ReplayPolicy's serializable cross-tick state: the index of
// the next event to fire. The trace itself is construction input.
type ReplayState struct {
	Next int
}

// PolicyState implements vmm.StatefulPolicy.
func (r *ReplayPolicy) PolicyState() any { return ReplayState{Next: r.next} }

// RestorePolicyState implements vmm.StatefulPolicy.
func (r *ReplayPolicy) RestorePolicyState(_ *vmm.Machine, st any) error {
	s, ok := st.(ReplayState)
	if !ok {
		return fmt.Errorf("ctrace: replay cannot restore state of type %T", st)
	}
	if s.Next < 0 || s.Next > len(r.trace.Events) {
		return fmt.Errorf("ctrace: replay cursor %d outside a %d-event trace", s.Next, len(r.trace.Events))
	}
	r.next = s.Next
	return nil
}

func procByID(m *vmm.Machine, id int) *vmm.Process {
	for _, p := range m.Procs() {
		if p.ID == id {
			return p
		}
	}
	return nil
}
