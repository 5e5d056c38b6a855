package vmm

import (
	"pccsim/internal/metrics"
	"pccsim/internal/trace"
)

// Job binds a process to its access stream and the cores its threads run
// on: thread t executes on Cores[t%len(Cores)].
type Job struct {
	Proc   *Process
	Stream trace.Stream
	Cores  []int
}

// jobSlice is how many accesses one job advances before the scheduler
// rotates to the next live job, simulating concurrent execution of multiple
// processes on a shared clock.
const jobSlice = 4096

// BaseFaultOnly marks policies whose OnFault always returns mem.Page4K and
// has no side effects: the fault path then skips the interface call
// entirely (the dispatch is resolved once per machine).
type BaseFaultOnly interface {
	BaseFaultOnly()
}

// RunResult summarizes one simulation run.
type RunResult struct {
	// Cycles is the modeled wall time: the max core cycle count.
	Cycles float64
	// Accesses is the total memory references simulated.
	Accesses uint64
	// Walks is the total page table walks (all cores).
	Walks uint64
	// L1Misses counts accesses that missed the L1 TLB (hit L2 or walked).
	L1Misses uint64
	// PTWRate is Walks/Accesses, the paper's "PTW %".
	PTWRate float64
	// L1MissRate is L1Misses/Accesses, the paper's "TLB Miss %".
	L1MissRate float64
	// StallCycles aggregates promotion/fault machinery time across cores.
	StallCycles float64
	// BackgroundCycles is the async promotion work performed off the
	// critical path.
	BackgroundCycles float64
	// HugePages2M is the total 2MB mappings live at completion.
	HugePages2M int
	// HugePages1G is the total 1GB mappings live at completion.
	HugePages1G int
	// Promotions and Demotions across all processes.
	Promotions uint64
	Demotions  uint64
	// PerProc holds each process's completion snapshot in job order.
	PerProc []ProcResult
}

// ProcResult is one process's completion record.
type ProcResult struct {
	Name          string
	RuntimeCycles float64
	Accesses      uint64
	HugePages2M   int
	HugePages1G   int
	Promotions    uint64
	Footprint     uint64
}

// liveJob is a Job being drained by a run.
type liveJob struct {
	*Job
	stream trace.BatchStream
	// block is non-nil when the job's stream hands out decoded columnar
	// blocks in place (trace.BlockSource): RunUntil then consumes those
	// slices directly instead of copying through the machine's batch buffer.
	block    trace.BlockSource
	accesses uint64
	done     bool
}

// executor owns the per-access mutable state of a run: the global access
// clock position, the deferred touched-bit run, and the config values the
// kernel reads per access, so it never chases the config pointer. A run owns one
// executor (sched.ex). Deferred touches flush at every segment end and
// before any fault.
type executor struct {
	m   *Machine
	now uint64 // global simulated-access clock (pre-increment)

	// Flattened per-machine values (set once per executor).
	coldOff bool       // Config.DisableColdFilter
	numa    *numaState // Machine.numa: nil when NUMA is off

	// effCPA is the running segment's base cycles-per-access (the process's
	// BaseCPA or metrics.BaseCPA), resolved once per segment in runSeg.
	effCPA float64

	// Deferred touched-bit run: 4KB page indexes [tLo, tHi] of tV awaiting
	// touched = true (see executor.touch).
	tV       *vma
	tLo, tHi uint64
}

// newExecutor builds a run's executor.
func (m *Machine) newExecutor() *executor {
	return &executor{m: m, coldOff: m.cfg.DisableColdFilter, numa: m.numa}
}

// Run drives the machine until every job's stream is exhausted: StartRun,
// then FinishRun. On a machine restored from a mid-run state it resumes the
// checkpointed run (see StartRun). It panics where StartRun would return an
// error, including when a run is already in progress. State accumulates
// across runs; build a fresh machine per experiment run.
//
// Streams are drained in batches (see trace.BatchStream): the per-access
// body is a plain loop over a buffer, with the promotion-tick check hoisted
// to batch-segment boundaries. Access order — and therefore every result —
// is identical to the historical one-Next-per-access loop.
func (m *Machine) Run(jobs ...*Job) RunResult {
	if err := m.StartRun(jobs...); err != nil {
		panic(err)
	}
	return m.FinishRun()
}

// collectResult aggregates the completion summary over the run's jobs.
func (m *Machine) collectResult(live []*liveJob) RunResult {
	res := RunResult{
		Accesses:         m.accessCount,
		BackgroundCycles: m.BackgroundCycles,
	}
	for _, c := range m.cores {
		if c.Cycles > res.Cycles {
			res.Cycles = c.Cycles
		}
		res.StallCycles += c.StallCycles
		res.Walks += c.TLB.Walks()
		res.L1Misses += c.TLB.L1Misses()
	}
	res.PTWRate = metrics.Rate(res.Walks, res.Accesses)
	res.L1MissRate = metrics.Rate(res.L1Misses, res.Accesses)
	for ji, j := range live {
		p := j.Proc
		res.HugePages2M += p.HugePages2M()
		res.HugePages1G += p.HugePages1G()
		res.Promotions += p.Promotions2M + p.Promotions1G
		res.Demotions += p.Demotions
		res.PerProc = append(res.PerProc, ProcResult{
			Name:          p.Name,
			RuntimeCycles: p.RuntimeCycles,
			Accesses:      live[ji].accesses,
			HugePages2M:   p.HugePages2M(),
			HugePages1G:   p.HugePages1G(),
			Promotions:    p.Promotions2M,
			Footprint:     p.Footprint(),
		})
	}
	return res
}

// serialChunk is the batch size used when only one job runs. A single job
// has no round-robin interleaving, so any chunking yields the identical
// access sequence — and a small buffer keeps the fill-then-execute round
// trip resident in L1 instead of streaming 64KB batches through L2.
const serialChunk = 512

// batch returns the machine's reusable batch-drain buffer, allocating it on
// first use (block-source jobs never need it).
func (m *Machine) batch() []trace.Access {
	if m.batchBuf == nil {
		m.batchBuf = make([]trace.Access, jobSlice)
	}
	return m.batchBuf
}

// runBatch simulates one batch of accesses for j, firing policy ticks at
// exactly the per-access points the unbatched loop did: the global access
// clock only advances inside the kernel, so the distance to the next tick
// bounds a segment that needs no per-access tick check.
func (m *Machine) runBatch(ex *executor, j *Job, batch []trace.Access) {
	for len(batch) > 0 {
		seg := batch
		if until := m.nextTick - ex.now; uint64(len(seg)) > until {
			seg = seg[:until]
		}
		ex.runSeg(j, seg)
		batch = batch[len(seg):]
		if ex.now >= m.nextTick {
			m.accessCount = ex.now
			m.tick()
		}
	}
}

// tick runs the policy-tick machinery in canonical order: the pressure
// model, lifecycle churn, the OS policy, then the audit. The caller has
// synced the clock.
func (m *Machine) tick() {
	m.nextTick += m.cfg.PromotionInterval
	m.pressureTick()
	m.lifecycleTick()
	if m.policy != nil {
		m.policy.Tick(m)
	}
	if m.cfg.AuditEveryTick {
		m.auditNow("after policy tick")
	}
}

// runSeg advances one tick-free segment of j through the segment kernel,
// one call per run of accesses that land on the same core (a single-core
// job's segment is one run). Deferred per-segment state — the touched-bit
// run and the cores' buffered PCC records — flushes on exit, so everything
// that runs between segments (ticks, audits, state capture) observes
// fully-applied state.
func (ex *executor) runSeg(j *Job, seg []trace.Access) {
	if ex.effCPA = j.Proc.BaseCPA; ex.effCPA == 0 {
		ex.effCPA = metrics.BaseCPA
	}
	cores := j.Cores
	for len(seg) > 0 {
		n, ci := len(seg), cores[0]
		if len(cores) > 1 {
			ci, n = cores[seg[0].Thread%len(cores)], 1
			for n < len(seg) && cores[seg[n].Thread%len(cores)] == ci {
				n++
			}
		}
		ex.seg(ex.m.cores[ci], j.Proc, seg[:n])
		seg = seg[n:]
	}
	ex.flushTouch()
	for _, ci := range cores {
		ex.m.cores[ci].flushPCC()
	}
}

// complete records j's completion: its process is finished, and its
// runtime is the max cycle count over the job's cores.
func (m *Machine) complete(j *Job) {
	mx := 0.0
	for _, ci := range j.Cores {
		if c := m.cores[ci].Cycles; c > mx {
			mx = c
		}
	}
	j.Proc.finished = true
	j.Proc.RuntimeCycles = mx
}
