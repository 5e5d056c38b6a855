package vmm

import (
	"context"
	"runtime/pprof"
	"strconv"
	"sync"

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
// has no side effects. The machine uses it two ways: the fault path skips
// the interface call entirely (the dispatch is resolved once per machine),
// and Run may execute independent job groups on separate OS threads, since
// no per-access fault can ever allocate huge pages or trigger a cross-core
// shootdown — all cross-core machinery then happens at tick barriers.
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

// executor owns the per-access mutable state of one execution lane: the
// global access clock position, the deferred base-page allocation counter,
// the deferred touched-bit run, and a flattened copy of the cost model so
// the kernel never chases the config pointer. A run owns one executor
// (sched.ex); the sharded coordinator hands it to its first worker and
// gives every other worker goroutine its own, setting now per dispatched
// segment so every access observes exactly the clock value the serial
// interleaving would have given it. Deferred allocations are pure
// commutative counters and are flushed into physmem at every
// synchronization point; deferred touches flush at every segment end and
// before any fault.
type executor struct {
	m          *Machine
	now        uint64 // global simulated-access clock (pre-increment)
	baseAllocs uint64 // base-page allocations not yet applied to physmem

	// Flattened per-machine constants (set once per executor).
	cBase     float64    // Config.Cost.BaseCPA
	cL2Hit    float64    // Config.Cost.L2TLBHit
	cWalkBase float64    // Config.Cost.WalkBase
	cWalkRef  float64    // Config.Cost.WalkRef
	coldOff   bool       // Config.DisableColdFilter
	numa      *numaState // Machine.numa: nil when NUMA is off

	// effCPA is the running segment's base cycles-per-access (the process's
	// BaseCPA or the config default), resolved once per segment in runSeg.
	effCPA float64

	// Deferred touched-bit run: 4KB page indexes [tLo, tHi] of tV awaiting
	// touched = true (see executor.touch).
	tV       *vma
	tLo, tHi uint64
}

// newExecutor builds an execution lane with the machine's cost model
// flattened in.
func (m *Machine) newExecutor() *executor {
	return &executor{
		m:         m,
		cBase:     m.cfg.Cost.BaseCPA,
		cL2Hit:    m.cfg.Cost.L2TLBHit,
		cWalkBase: m.cfg.Cost.WalkBase,
		cWalkRef:  m.cfg.Cost.WalkRef,
		coldOff:   m.cfg.DisableColdFilter,
		numa:      m.numa,
	}
}

// flushAllocs applies the deferred base-page allocation count to physmem.
func (ex *executor) flushAllocs() {
	if ex.baseAllocs > 0 {
		ex.m.phys.AllocBase(ex.baseAllocs)
		ex.baseAllocs = 0
	}
}

// Run drives the machine until every job's stream is exhausted: StartRun,
// then the sharded coordinator when the jobs split into independent groups,
// then FinishRun. On a machine restored from a mid-run state it resumes the
// checkpointed run (see StartRun). It panics where StartRun would return an
// error, including when a run is already in progress. State accumulates
// across runs; build a fresh machine per experiment run.
//
// Streams are drained in batches (see trace.BatchStream): the per-access
// body is a plain loop over a buffer, with the promotion-tick check hoisted
// to batch-segment boundaries. Access order — and therefore every result —
// is identical to the historical one-Next-per-access loop.
//
// When Config.Shards > 1 and the job set splits into independent groups
// (sharing no cores and no processes) under a base-fault-only policy with
// NUMA off, the groups execute on separate goroutines between policy ticks;
// all cross-group machinery runs at deterministic epoch barriers, so the
// output stays byte-identical at every shard count.
func (m *Machine) Run(jobs ...*Job) RunResult {
	if err := m.StartRun(jobs...); err != nil {
		panic(err)
	}
	if groupOf, groups := m.shardGroups(m.sched.live); groups > 1 {
		m.runSharded(groupOf, groups)
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
// first use (block-source jobs and sharded runs never need it).
func (m *Machine) batch() []trace.Access {
	if m.batchBuf == nil {
		m.batchBuf = make([]trace.Access, jobSlice)
	}
	return m.batchBuf
}

// shardGroups partitions the jobs into independent groups (union-find over
// shared cores and shared processes) and reports whether sharded execution
// is both enabled and worthwhile. A group count of 1 means "run serial" —
// either sharding is off, a gate fails, or everything is connected.
func (m *Machine) shardGroups(live []*liveJob) ([]int, int) {
	if m.cfg.Shards <= 1 || len(live) < 2 || m.numa != nil || !m.policyBase {
		return nil, 1
	}
	parent := make([]int, len(live))
	for i := range parent {
		parent[i] = i
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) { parent[find(a)] = find(b) }
	coreOwner := map[int]int{}
	procOwner := map[*Process]int{}
	for i, j := range live {
		for _, c := range j.Cores {
			if o, ok := coreOwner[c]; ok {
				union(i, o)
			} else {
				coreOwner[c] = i
			}
		}
		if o, ok := procOwner[j.Proc]; ok {
			union(i, o)
		} else {
			procOwner[j.Proc] = i
		}
	}
	groupOf := make([]int, len(live))
	next := 0
	id := map[int]int{}
	for i := range live {
		r := find(i)
		g, ok := id[r]
		if !ok {
			g = next
			id[r] = g
			next++
		}
		groupOf[i] = g
	}
	if next < 2 {
		return nil, 1
	}
	return groupOf, next
}

// shardTask is one unit of work dispatched to a shard worker: a tick-free
// segment of one job's stream starting at global clock start, or (fin) the
// job's completion record. buf, when non-nil, returns to the coordinator's
// pool after the task is processed (the segment was the last one sliced
// from it).
type shardTask struct {
	j     *liveJob
	seg   []trace.Access
	start uint64
	buf   []trace.Access
	fin   bool
}

// runSharded executes the run's independent job groups on up to
// Config.Shards worker goroutines. The coordinator steps the same sched
// cursor RunUntil does — the same round-robin, the same batch boundaries,
// the same tick segmentation — but instead of executing each segment it
// dispatches it, tagged with its global clock position, to the worker
// owning the job's group. Each group's segments execute in dispatch order on
// a single worker, and distinct groups share no mutable state between
// barriers, so every access observes exactly the state and clock it would
// have observed serially. At each policy tick the coordinator waits for all
// in-flight work (the epoch barrier), syncs the clock, flushes deferred
// allocation counters, and runs the tick machinery — promotions, demotions,
// pressure, shootdowns — alone, in canonical order. Output is therefore
// byte-identical to the serial run.
func (m *Machine) runSharded(groupOf []int, groups int) {
	s := m.sched
	nw := min(m.cfg.Shards, groups)

	pool := make(chan []trace.Access, nw*2+2)
	for i := 0; i < cap(pool); i++ {
		pool <- make([]trace.Access, jobSlice)
	}
	var inflight sync.WaitGroup // dispatched-but-unfinished tasks (the barrier)
	var workers sync.WaitGroup  // worker goroutine lifecycle
	execs := make([]*executor, nw)
	queues := make([]chan shardTask, nw)
	for w := 0; w < nw; w++ {
		// The first worker runs on the run's own executor, which carries
		// any deferred allocations a restored run resumed with.
		ex := s.ex
		if w > 0 {
			ex = m.newExecutor()
		}
		execs[w] = ex
		q := make(chan shardTask, 64)
		queues[w] = q
		workers.Add(1)
		go pprof.Do(context.Background(), pprof.Labels("pccsim", "shard-worker", "worker", strconv.Itoa(w)), func(context.Context) {
			defer workers.Done()
			for t := range q {
				if t.fin {
					m.complete(t.j.Job)
				} else {
					ex.now = t.start
					ex.runSeg(t.j.Job, t.seg)
				}
				if t.buf != nil {
					pool <- t.buf
				}
				inflight.Done()
			}
		})
	}
	dispatch := func(w int, t shardTask) {
		inflight.Add(1)
		queues[w] <- t
	}

	globalNow := m.accessCount
	// dispatchSegs slices one decoded batch at tick boundaries and dispatches
	// the segments to worker w, exactly as runBatch would have executed
	// them; buf rides on the final segment.
	dispatchSegs := func(w int, j *liveJob, batch, buf []trace.Access) {
		for len(batch) > 0 {
			seg := batch
			if until := m.nextTick - globalNow; uint64(len(seg)) > until {
				seg = seg[:until]
			}
			batch = batch[len(seg):]
			t := shardTask{j: j, seg: seg, start: globalNow}
			if len(batch) == 0 {
				t.buf = buf
			}
			dispatch(w, t)
			globalNow += uint64(len(seg))
			if globalNow >= m.nextTick {
				inflight.Wait()
				for _, ex := range execs {
					ex.flushAllocs()
				}
				m.accessCount = globalNow
				m.tick()
			}
		}
	}

	for {
		ji, want := s.next(globalNow, runForever)
		if ji < 0 {
			break
		}
		// Every job, block replays included, decodes into a pool buffer: a
		// full turn is one whole block, which BlockReplayStream.NextBatch
		// decodes straight into the buffer.
		j, w := s.live[ji], groupOf[ji]%nw
		buf := <-pool
		seg := buf[:j.stream.NextBatch(buf[:want])]
		s.took(ji, len(seg))
		if len(seg) > 0 {
			dispatchSegs(w, j, seg, buf)
			continue
		}
		pool <- buf
		// The completion record (finished flag, runtime = max cycles over
		// the job's cores) must observe all of the group's prior work, so
		// it runs on the group's worker, behind its queue.
		dispatch(w, shardTask{j: j, fin: true})
	}
	for _, q := range queues {
		close(q)
	}
	workers.Wait()
	for _, ex := range execs {
		ex.flushAllocs()
	}
	s.ex.now = globalNow
	m.accessCount = globalNow
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
			ex.flushAllocs()
			m.tick()
		}
	}
}

// tick runs the policy-tick machinery at an epoch barrier, in canonical
// order: the pressure model, lifecycle churn, the OS policy, then the
// audit. The caller has synced the clock and flushed deferred allocations.
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
		ex.effCPA = ex.cBase
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
