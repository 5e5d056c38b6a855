package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"time"

	"pccsim/internal/experiments"
	"pccsim/internal/obs"
	"pccsim/internal/vmm"
	"pccsim/internal/workloads"
)

// item is one timed unit of a figure: a simulated cell or a daemon job.
type item struct {
	name   string
	secs   float64 // cell: NewMachine until Run returns; job: POST sent until done read
	digest string  // digest of everything the item computed
	err    error
}

// figure is one repetition of a workload's grid: every cell (or, for the
// daemon, one round of every client's jobs) run once.
type figure struct {
	wall     float64 // first item dispatched until last item done
	items    []item
	accesses uint64       // simulated accesses, for per-access ratios
	counters obs.Snapshot // summed Machine.Metrics over the figure's machines
	layers   layerTimes   // traced figures only
}

// layerTimes sums one traced figure's time per layer boundary, in seconds.
type layerTimes struct {
	cell, build, run, vmmSelf, live, replay, prefetch, tick, fault, audit float64
	liveItems, replayItems, prefetchItems                                 int64
	ticks, faults                                                         int64

	// Daemon jobs: the phases of job time as a client sees them.
	job, submit, queue, exp, tail, output float64
	submits, queues, exps, outputs        []float64
}

// cellSpec is one simulation of a cell workload. build constructs the
// machine, its processes and its jobs through the library's public calls;
// ct (nil when untraced) wraps the policy and streams it hands the machine.
type cellSpec struct {
	name  string
	build func(ct *cellTrace) (*vmm.Machine, []*vmm.Job)
}

// cellSuite is a workload made of cells run on an experiments run pool.
type cellSuite struct {
	cells   []cellSpec
	workers int
}

// runFigure runs every cell once on the pool and collects their outcomes.
func (s *cellSuite) runFigure(traced bool, spans *spanLog) figure {
	type outcome struct {
		it       item
		accesses uint64
		counters obs.Snapshot
		ct       *cellTrace
		start    time.Time
	}
	tasks := make([]experiments.Task[outcome], len(s.cells))
	for i, c := range s.cells {
		tasks[i] = experiments.Task[outcome]{Name: c.name, Run: func() (outcome, error) {
			var ct *cellTrace
			if traced {
				ct = &cellTrace{}
			}
			start := time.Now()
			it, acc, counters := runCell(c, ct)
			return outcome{it, acc, counters, ct, start}, nil
		}}
	}
	t0 := time.Now()
	outs, err := experiments.RunAll(experiments.NewRunPool(s.workers), tasks)
	f := figure{wall: time.Since(t0).Seconds(), counters: obs.Snapshot{}}
	if err != nil {
		// Tasks never return errors (runCell reports them in the item), so
		// this is the pool itself failing: every cell counts as failed.
		for _, c := range s.cells {
			f.items = append(f.items, item{name: c.name, err: err})
		}
		return f
	}
	for _, o := range outs {
		f.items = append(f.items, o.it)
		f.accesses += o.accesses
		f.counters.Merge(o.counters)
		if ct := o.ct; ct != nil {
			spans.addCell(o.it.name, o.start, ct)
			l := &f.layers
			l.cell += (ct.build + ct.run).Seconds()
			l.build += ct.build.Seconds()
			l.run += ct.run.Seconds()
			l.vmmSelf += ct.vmmSelf().Seconds()
			l.live += ct.live.seconds()
			l.replay += ct.replay.seconds()
			l.prefetch += ct.prefetch.seconds()
			l.tick += ct.tick.seconds()
			l.fault += ct.fault.seconds()
			l.audit += ct.audit.Seconds()
			l.liveItems += ct.live.items.Load()
			l.replayItems += ct.replay.items.Load()
			l.prefetchItems += ct.prefetch.items.Load()
			l.ticks += ct.tick.calls.Load()
			l.faults += ct.fault.calls.Load()
		}
	}
	return f
}

// runCell simulates one cell: the timed region runs from the machine's
// construction until Run returns. The invariant audit, the metrics snapshot
// and the digest follow outside it. A panic anywhere fails the cell.
func runCell(c cellSpec, ct *cellTrace) (it item, accesses uint64, counters obs.Snapshot) {
	it.name = c.name
	var jobs []*vmm.Job
	defer func() {
		for _, j := range jobs {
			workloads.CloseStream(j.Stream)
		}
		if r := recover(); r != nil {
			it.err = fmt.Errorf("panic: %v", r)
		}
	}()
	t0 := time.Now()
	m, jobs := c.build(ct)
	t1 := time.Now()
	res := m.Run(jobs...)
	t2 := time.Now()
	it.secs = t2.Sub(t0).Seconds()

	// Machine.Audit includes the physical memory census (Phys().Audit()).
	violations := m.Audit()
	if ct != nil {
		ct.build, ct.run, ct.audit = t1.Sub(t0), t2.Sub(t1), time.Since(t2)
	}
	if len(violations) > 0 {
		it.err = fmt.Errorf("%d audit violations, first: %s", len(violations), violations[0])
	}
	counters = m.Metrics()
	it.digest = digest(fmt.Sprintf("%+v", res), snapshotText(counters))
	return it, res.Accesses, counters
}

// snapshotText renders a metrics snapshot canonically (sorted names).
func snapshotText(s obs.Snapshot) string {
	var b strings.Builder
	for _, n := range s.Names() {
		fmt.Fprintf(&b, "%s=%v\n", n, s[n])
	}
	return b.String()
}

// digest is a short content hash: 48 bits are plenty to catch a changed
// result and keep the reference file small.
func digest(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))[:12]
}

// checker is the correctness gate. An item fails when it reports an error,
// when its digest differs from the committed reference for this workload and
// seed, or when it differs from the digest the same item produced earlier in
// this run (every repetition, traced or not, must compute the same thing).
type checker struct {
	ref       map[string]string // nil when no reference is committed for the seed
	seen      map[string]string
	attempted int
	failed    int
	problems  []string
}

func newChecker(ref map[string]string) *checker {
	return &checker{ref: ref, seen: map[string]string{}}
}

func (c *checker) check(items []item) {
	for _, it := range items {
		c.attempted++
		var why string
		switch want, ok := c.ref[it.name]; {
		case it.err != nil:
			why = it.err.Error()
		case c.ref != nil && !ok:
			why = "no reference digest"
		case ok && it.digest != want:
			why = fmt.Sprintf("digest %s, reference %s", it.digest, want)
		}
		if prev, ok := c.seen[it.name]; why == "" && ok && prev != it.digest {
			why = fmt.Sprintf("digest %s, earlier in this run %s", it.digest, prev)
		}
		if why == "" {
			c.seen[it.name] = it.digest
			continue
		}
		c.failed++
		if len(c.problems) < 10 {
			c.problems = append(c.problems, it.name+": "+why)
		}
	}
}
