package vmm

import (
	"fmt"

	"pccsim/internal/trace"
)

// Interruptible execution. StartRun/RunUntil/FinishRun split a run into
// resumable pieces: the caller advances the machine to chosen points on the
// global access clock, may capture a full State() between any two calls, and
// a restored machine picks the run back up mid-stream. Run itself is
// StartRun then FinishRun.
//
// One cursor, sched, drives every run: RunUntil executes the turns it hands
// out in round-robin order, with the jobSlice quantum and the tick firing
// points of an uninterrupted run. Stopping early only shortens a turn;
// BatchStream's prefix guarantee means the access sequence is unchanged.

// runForever is a stopAt no clock reaches: RunUntil(runForever) drains.
const runForever = ^uint64(0)

// sched is a run in progress: its jobs, its executor, and the round-robin
// cursor. Single-job runs keep no turn accounting — with nothing to rotate
// to, the job's turn never ends — so their jobIdx and sliceLeft stay at
// their initial values.
type sched struct {
	live      []*liveJob
	ex        *executor
	jobIdx    int // job whose turn it is
	sliceLeft int // accesses left in its turn
	remaining int // jobs not yet completed
}

// next returns the index of the job whose turn it is and how many accesses
// it may take: the rest of its turn, cut short at stopAt. The index is -1
// once every job is done or now has reached stopAt.
func (s *sched) next(now, stopAt uint64) (int, int) {
	if s.remaining == 0 || now >= stopAt {
		return -1, 0
	}
	for s.live[s.jobIdx].done {
		s.rotate()
	}
	want := s.sliceLeft
	if left := stopAt - now; left < uint64(want) {
		want = int(left)
	}
	return s.jobIdx, want
}

// took records n accesses consumed by job ji's turn; n == 0 means the job's
// stream is exhausted and finishes the job.
func (s *sched) took(ji, n int) {
	if n == 0 {
		s.live[ji].done = true
		s.remaining--
		s.rotate()
		return
	}
	s.live[ji].accesses += uint64(n)
	if len(s.live) > 1 {
		if s.sliceLeft -= n; s.sliceLeft == 0 {
			s.rotate()
		}
	}
}

// rotate hands the turn to the next job.
func (s *sched) rotate() {
	s.jobIdx = (s.jobIdx + 1) % len(s.live)
	s.sliceLeft = jobSlice
}

// StartRun begins an interruptible run over the given jobs. If the machine
// was restored from a mid-run state, the job list must match the
// checkpointed one (same order, streams regenerating the same accesses);
// each stream is fast-forwarded past the accesses the checkpointed run had
// already consumed, and execution resumes at the exact scheduler position.
// A refused call leaves that position staged for the next attempt.
func (m *Machine) StartRun(jobs ...*Job) error {
	if m.sched != nil {
		return fmt.Errorf("vmm: StartRun: a run is already in progress")
	}
	live := make([]*liveJob, len(jobs))
	for i, j := range jobs {
		if len(j.Cores) == 0 {
			j.Cores = []int{0}
		}
		for _, c := range j.Cores {
			if c < 0 || c >= len(m.cores) {
				return fmt.Errorf("vmm: StartRun: job %d core %d out of range", i, c)
			}
		}
		live[i] = &liveJob{Job: j, stream: trace.Batched(j.Stream)}
		live[i].block, _ = j.Stream.(trace.BlockSource)
	}
	ex := m.newExecutor()
	ex.now = m.accessCount
	s := &sched{
		live:      live,
		ex:        ex,
		sliceLeft: jobSlice,
		remaining: len(live),
	}
	if ps := m.pendingSched; ps != nil {
		if len(ps.Consumed) != len(live) {
			return fmt.Errorf("vmm: StartRun: restored state expects %d jobs, got %d", len(ps.Consumed), len(live))
		}
		skipBuf := make([]trace.Access, jobSlice)
		for i, lj := range live {
			if err := skipStream(lj.stream, ps.Consumed[i], skipBuf); err != nil {
				return fmt.Errorf("vmm: StartRun: job %d: %w", i, err)
			}
			lj.accesses = ps.Consumed[i]
			lj.done = ps.Done[i]
			if lj.done {
				s.remaining--
			}
		}
		s.jobIdx = ps.JobIdx
		s.sliceLeft = ps.SliceLeft
		m.pendingSched = nil
	}
	m.sched = s
	return nil
}

// skipStream discards n accesses from the front of s (the part of the trace
// a checkpointed run already executed).
func skipStream(s trace.BatchStream, n uint64, buf []trace.Access) error {
	left := n
	for left > 0 {
		want := uint64(len(buf))
		if left < want {
			want = left
		}
		got := s.NextBatch(buf[:want])
		if got == 0 {
			return fmt.Errorf("stream exhausted after skipping %d of %d checkpointed accesses", n-left, n)
		}
		left -= uint64(got)
	}
	return nil
}

// RunUntil advances the run until the global access clock reaches stopAt or
// every job completes, and reports whether all jobs are done. Turns are cut
// short at stopAt, so the run stops exactly there.
func (m *Machine) RunUntil(stopAt uint64) bool {
	s := m.sched
	if s == nil {
		panic("vmm: RunUntil without StartRun")
	}
	ex := s.ex
	chunk := jobSlice
	if len(s.live) == 1 {
		chunk = serialChunk
	}
	for {
		ji, want := s.next(ex.now, stopAt)
		if ji < 0 {
			break
		}
		j := s.live[ji]
		var seg []trace.Access
		if j.block != nil {
			seg = j.block.NextBlock(want)
		} else {
			buf := m.batch()[:min(want, chunk)]
			seg = buf[:j.stream.NextBatch(buf)]
		}
		s.took(ji, len(seg))
		if len(seg) == 0 {
			m.complete(j.Job)
			continue
		}
		m.runBatch(ex, j.Job, seg)
	}
	m.accessCount = ex.now
	return s.remaining == 0
}

// FinishRun drains whatever remains of the run and returns the result —
// byte-identical to what an uninterrupted Run over the same jobs returns,
// regardless of how many RunUntil/checkpoint/restore cycles preceded it.
func (m *Machine) FinishRun() RunResult {
	s := m.sched
	if s == nil {
		panic("vmm: FinishRun without StartRun")
	}
	m.RunUntil(runForever)
	if m.cfg.AuditEveryTick {
		m.auditNow("at end of run")
	}
	res := m.collectResult(s.live)
	m.sched = nil
	return res
}
