package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"pccsim/internal/mem"
	"pccsim/internal/ospolicy"
	"pccsim/internal/trace"
	"pccsim/internal/vmm"
	"pccsim/internal/workloads"
)

// This file is the traced run's instrumentation. Every measurement is taken
// from outside the simulator: the benchmark times its own calls into each
// layer's public functions, and wraps the two objects a machine calls back
// into (the OS policy and the access streams) so that calls made on Run's
// goroutine can be attributed to the layer that serves them. The untraced
// run installs none of this; a nil *cellTrace makes every wrap a no-op.

// callStat folds repeated calls at one layer boundary into a count, the
// items they handed over (accesses for streams) and their total duration.
// It is updated from whichever goroutine makes the call.
type callStat struct {
	calls, items, ns atomic.Int64
}

func (c *callStat) add(t0 time.Time, items int) {
	c.calls.Add(1)
	c.items.Add(int64(items))
	c.ns.Add(int64(time.Since(t0)))
}

func (c *callStat) seconds() float64 { return float64(c.ns.Load()) / 1e9 }

// cellTrace accumulates one traced cell's layer timings.
type cellTrace struct {
	build, run, audit time.Duration

	live     callStat // live workload NextBatch on Run's goroutine (workloads)
	replay   callStat // replay NextBlock/NextBatch on Run's goroutine (trace)
	prefetch callStat // replay DecodeBlock on prefetch goroutines (trace; overlaps Run)
	tick     callStat // policy Tick (ospolicy)
	fault    callStat // policy OnFault (ospolicy)
}

// vmmSelf is Run's own time: its duration minus the stream and policy calls
// made on Run's goroutine. Prefetch decode runs concurrently and is not
// subtracted.
func (ct *cellTrace) vmmSelf() time.Duration {
	d := ct.run - time.Duration(ct.live.ns.Load()+ct.replay.ns.Load()+ct.tick.ns.Load()+ct.fault.ns.Load())
	if d < 0 {
		return 0
	}
	return d
}

// policy wraps p so its Tick and OnFault calls are timed. Each wrapper
// embeds the concrete policy, so it keeps exactly the optional interfaces
// (BaseFaultOnly, PolicyAuditor, StatefulPolicy, MetricsPublisher,
// ProcessReaper, AddressSpaceReaper) the machine type-asserts; kernel
// choice, shard gating and fault dispatch are the same as unwrapped.
func (ct *cellTrace) policy(p vmm.Policy) vmm.Policy {
	if ct == nil {
		return p
	}
	switch p := p.(type) {
	case *ospolicy.PCCEngine:
		return &tracedPCC{p, ct}
	case *ospolicy.HawkEye:
		return &tracedHawkEye{p, ct}
	case *ospolicy.LinuxTHP:
		return &tracedLinuxTHP{p, ct}
	case ospolicy.Baseline:
		return &tracedBaseline{p, ct}
	case ospolicy.AllHuge:
		return &tracedAllHuge{p, ct}
	}
	panic(fmt.Sprintf("perfbench: no traced wrapper for policy %T", p))
}

type tracedPCC struct {
	*ospolicy.PCCEngine
	ct *cellTrace
}

func (w *tracedPCC) Tick(m *vmm.Machine) {
	t0 := time.Now()
	w.PCCEngine.Tick(m)
	w.ct.tick.add(t0, 1)
}

func (w *tracedPCC) OnFault(m *vmm.Machine, p *vmm.Process, a mem.VirtAddr) mem.PageSize {
	t0 := time.Now()
	s := w.PCCEngine.OnFault(m, p, a)
	w.ct.fault.add(t0, 1)
	return s
}

type tracedHawkEye struct {
	*ospolicy.HawkEye
	ct *cellTrace
}

func (w *tracedHawkEye) Tick(m *vmm.Machine) {
	t0 := time.Now()
	w.HawkEye.Tick(m)
	w.ct.tick.add(t0, 1)
}

func (w *tracedHawkEye) OnFault(m *vmm.Machine, p *vmm.Process, a mem.VirtAddr) mem.PageSize {
	t0 := time.Now()
	s := w.HawkEye.OnFault(m, p, a)
	w.ct.fault.add(t0, 1)
	return s
}

type tracedLinuxTHP struct {
	*ospolicy.LinuxTHP
	ct *cellTrace
}

func (w *tracedLinuxTHP) Tick(m *vmm.Machine) {
	t0 := time.Now()
	w.LinuxTHP.Tick(m)
	w.ct.tick.add(t0, 1)
}

func (w *tracedLinuxTHP) OnFault(m *vmm.Machine, p *vmm.Process, a mem.VirtAddr) mem.PageSize {
	t0 := time.Now()
	s := w.LinuxTHP.OnFault(m, p, a)
	w.ct.fault.add(t0, 1)
	return s
}

type tracedBaseline struct {
	ospolicy.Baseline
	ct *cellTrace
}

func (w *tracedBaseline) Tick(m *vmm.Machine) {
	t0 := time.Now()
	w.Baseline.Tick(m)
	w.ct.tick.add(t0, 1)
}

func (w *tracedBaseline) OnFault(m *vmm.Machine, p *vmm.Process, a mem.VirtAddr) mem.PageSize {
	t0 := time.Now()
	s := w.Baseline.OnFault(m, p, a)
	w.ct.fault.add(t0, 1)
	return s
}

type tracedAllHuge struct {
	ospolicy.AllHuge
	ct *cellTrace
}

func (w *tracedAllHuge) Tick(m *vmm.Machine) {
	t0 := time.Now()
	w.AllHuge.Tick(m)
	w.ct.tick.add(t0, 1)
}

func (w *tracedAllHuge) OnFault(m *vmm.Machine, p *vmm.Process, a mem.VirtAddr) mem.PageSize {
	t0 := time.Now()
	s := w.AllHuge.OnFault(m, p, a)
	w.ct.fault.add(t0, 1)
	return s
}

// stream wraps s so its batch calls are timed: live workload streams count
// as the workloads layer, columnar replays as the trace layer. The wrapper
// is a trace.BlockSource exactly when s is, so Run keeps the zero-copy and
// prefetch paths it would take unwrapped. Per-access Next is forwarded
// untimed; Run only drains batches.
func (ct *cellTrace) stream(s trace.Stream) trace.Stream {
	if ct == nil {
		return s
	}
	if bs, ok := s.(trace.BlockSource); ok {
		return &tracedBlocks{tracedStream{inner: s, batch: bs, stat: &ct.replay}, bs, &ct.prefetch}
	}
	return &tracedStream{inner: s, batch: trace.Batched(s), stat: &ct.live}
}

type tracedStream struct {
	inner trace.Stream
	batch trace.BatchStream
	stat  *callStat
}

func (s *tracedStream) Next() (trace.Access, bool) { return s.inner.Next() }

func (s *tracedStream) NextBatch(buf []trace.Access) int {
	t0 := time.Now()
	n := s.batch.NextBatch(buf)
	s.stat.add(t0, n)
	return n
}

func (s *tracedStream) Close() { workloads.CloseStream(s.inner) }

type tracedBlocks struct {
	tracedStream
	src      trace.BlockSource
	prefetch *callStat
}

func (s *tracedBlocks) NextBlock(max int) []trace.Access {
	t0 := time.Now()
	blk := s.src.NextBlock(max)
	s.stat.add(t0, len(blk))
	return blk
}

func (s *tracedBlocks) DecodeBlock(buf []trace.Access) int {
	t0 := time.Now()
	n := s.src.DecodeBlock(buf)
	s.prefetch.add(t0, n)
	return n
}

// span is one timed interval of the traced run. Start is relative to the
// run's start. Folded spans (per-batch stream calls, policy ticks and
// faults) carry their call count and total duration instead of one record
// per call.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Item   string `json:"item,omitempty"`
	Start  int64  `json:"start_ns"`
	Dur    int64  `json:"dur_ns"`
	Calls  int64  `json:"calls,omitempty"`
	Items  int64  `json:"items,omitempty"`
}

// spanLog keeps the traced run's spans in memory until write. A nil log
// records nothing.
type spanLog struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// add records a span and returns its ID (0 for a nil log).
func (l *spanLog) add(parent int, name, item string, start time.Time, d time.Duration) int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name, Item: item,
		Start: int64(start.Sub(l.t0)), Dur: int64(d)})
	return id
}

// addFolded records a folded child span of parent.
func (l *spanLog) addFolded(parent int, name, item string, start time.Time, c *callStat) {
	if l == nil || c.calls.Load() == 0 {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{ID: len(l.spans) + 1, Parent: parent, Name: name, Item: item,
		Start: int64(start.Sub(l.t0)), Dur: c.ns.Load(), Calls: c.calls.Load(), Items: c.items.Load()})
}

// addCell records a traced cell: the cell span, its build and run children,
// the folded stream and policy calls under run, and the audit that follows
// the timed region.
func (l *spanLog) addCell(name string, start time.Time, ct *cellTrace) {
	if l == nil {
		return
	}
	cell := l.add(0, "cell", name, start, ct.build+ct.run)
	l.add(cell, "build", name, start, ct.build)
	runStart := start.Add(ct.build)
	run := l.add(cell, "run", name, runStart, ct.run)
	l.addFolded(run, "stream.live", name, runStart, &ct.live)
	l.addFolded(run, "stream.replay", name, runStart, &ct.replay)
	l.addFolded(run, "stream.prefetch", name, runStart, &ct.prefetch)
	l.addFolded(run, "tick", name, runStart, &ct.tick)
	l.addFolded(run, "fault", name, runStart, &ct.fault)
	l.add(0, "audit", name, runStart.Add(ct.run), ct.audit)
}

// write stores the spans as NDJSON at path.
func (l *spanLog) write(path string) error {
	if l == nil || path == "" {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	l.mu.Lock()
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			l.mu.Unlock()
			f.Close()
			return err
		}
	}
	l.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
