package vmm

import (
	"context"
	"fmt"
	"runtime/pprof"
	"strconv"
	"sync"

	"pccsim/internal/mem"
	"pccsim/internal/metrics"
	"pccsim/internal/obs"
	"pccsim/internal/tlb"
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

// liveJob is a Job being drained by Run.
type liveJob struct {
	*Job
	stream trace.BatchStream
	// block is non-nil when the job's stream hands out decoded columnar
	// blocks in place (trace.BlockSource): Run then consumes those slices
	// directly instead of copying through the machine's batch buffer.
	block    trace.BlockSource
	accesses uint64
	done     bool
}

// executor owns the per-access mutable state of one execution lane: the
// global access clock position, the deferred base-page allocation counter,
// the deferred touched-bit run, and a flattened copy of the cost model so
// the kernels never chase the config pointer. The serial Run uses a single
// executor; the sharded Run gives each worker goroutine its own, setting
// now per dispatched segment so every access observes exactly the clock
// value the serial interleaving would have given it. Deferred allocations
// are pure commutative counters and are flushed into physmem at every
// synchronization point; deferred touches flush at every segment end and
// before any fault.
type executor struct {
	m          *Machine
	now        uint64 // global simulated-access clock (pre-increment)
	baseAllocs uint64 // base-page allocations not yet applied to physmem

	// Flattened per-machine constants (set once per executor).
	cBase     float64 // Config.Cost.BaseCPA
	cL2Hit    float64 // Config.Cost.L2TLBHit
	cWalkBase float64 // Config.Cost.WalkBase
	cWalkRef  float64 // Config.Cost.WalkRef
	mlpOn     bool    // Config.PTWMLPWidth > 1
	coldOff   bool    // Config.DisableColdFilter

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
		mlpOn:     m.cfg.PTWMLPWidth > 1,
		coldOff:   m.cfg.DisableColdFilter,
	}
}

// flushAllocs applies the deferred base-page allocation count to physmem.
func (ex *executor) flushAllocs() {
	if ex.baseAllocs > 0 {
		ex.m.phys.AllocBase(ex.baseAllocs)
		ex.baseAllocs = 0
	}
}

// Run drives the machine until every job's stream is exhausted. It may be
// called once per machine (state accumulates; build a fresh machine per
// experiment run).
//
// Streams are drained in batches (see trace.BatchStream): the per-access
// body is a plain loop over a buffer, with the promotion-tick check hoisted
// to batch-segment boundaries and the thread-to-core dispatch hoisted
// entirely for single-core jobs. Access order — and therefore every result —
// is identical to the historical one-Next-per-access loop.
//
// When Config.Shards > 1 and the job set splits into independent groups
// (sharing no cores and no processes) under a base-fault-only policy with
// NUMA off, the groups execute on separate goroutines between policy ticks;
// all cross-group machinery runs at deterministic epoch barriers, so the
// output stays byte-identical at every shard count.
func (m *Machine) Run(jobs ...*Job) RunResult {
	live := make([]*liveJob, len(jobs))
	for i, j := range jobs {
		if len(j.Cores) == 0 {
			j.Cores = []int{0}
		}
		for _, c := range j.Cores {
			if c < 0 || c >= len(m.cores) {
				panic(fmt.Sprintf("vmm: job core %d out of range", c))
			}
		}
		live[i] = &liveJob{Job: j, stream: trace.Batched(j.Stream)}
		if bs, ok := j.Stream.(trace.BlockSource); ok {
			live[i].block = bs
		}
	}

	m.running = live
	if groupOf, groups := m.shardGroups(live); groups > 1 {
		m.runSharded(live, groupOf, groups)
	} else {
		m.runSerial(live)
	}
	m.running = nil

	if m.cfg.AuditEveryTick {
		m.auditNow("at end of run")
	}

	return m.collectResult(live)
}

// collectResult aggregates the completion summary over the run's jobs
// (shared by Run and FinishRun).
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

// runSerial is the historical single-threaded drain loop. Jobs whose stream
// is a trace.BlockSource take the zero-copy path: the simulation loop runs
// directly over the stream's decoded block, skipping the copy through the
// machine's batch buffer. Batch boundaries carry no semantics — runBatch
// re-segments at tick boundaries and access order is unchanged — so the two
// paths are bit-identical.
func (m *Machine) runSerial(live []*liveJob) {
	ex := m.newExecutor()
	ex.now = m.accessCount
	if len(live) == 1 {
		j := live[0]
		if j.block != nil {
			for {
				seg := j.block.NextBlock(jobSlice)
				if len(seg) == 0 {
					break
				}
				j.accesses += uint64(len(seg))
				m.runBatch(ex, j.Job, seg)
			}
		} else {
			small := m.batch()[:serialChunk]
			for {
				n := j.stream.NextBatch(small)
				if n == 0 {
					break
				}
				j.accesses += uint64(n)
				m.runBatch(ex, j.Job, small[:n])
			}
		}
		j.done = true
		j.Proc.finished = true
		j.Proc.RuntimeCycles = m.maxCycles(j.Cores)
		m.accessCount = ex.now
		ex.flushAllocs()
		return
	}
	remaining := len(live)
	for remaining > 0 {
		for _, j := range live {
			if j.done {
				continue
			}
			// Advance this job by exactly jobSlice accesses (short batches
			// from chunked producers are re-requested) before rotating to
			// the next live job — the same interleaving the per-access loop
			// produced.
			slice := jobSlice
			for slice > 0 {
				var seg []trace.Access
				if j.block != nil {
					seg = j.block.NextBlock(slice)
				} else {
					buf := m.batch()
					seg = buf[:j.stream.NextBatch(buf[:slice])]
				}
				n := len(seg)
				if n == 0 {
					j.done = true
					remaining--
					j.Proc.finished = true
					j.Proc.RuntimeCycles = m.maxCycles(j.Cores)
					break
				}
				slice -= n
				j.accesses += uint64(n)
				m.runBatch(ex, j.Job, seg)
			}
		}
	}
	m.accessCount = ex.now
	ex.flushAllocs()
}

// batch returns the machine's reusable batch-drain buffer, allocating it on
// first use (block-source jobs never need it).
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
// job's completion record. buf, when non-nil, is sent to freeTo after the
// task is processed (the segment was the last one sliced from it) — the
// shared pool for coordinator-filled buffers, or the owning job's prefetcher
// for decoded columnar blocks.
type shardTask struct {
	j      *liveJob
	seg    []trace.Access
	start  uint64
	buf    []trace.Access
	freeTo chan []trace.Access
	fin    bool
}

// blockPrefetcher decodes a job's columnar block stream ahead of the
// simulation on its own goroutine: DecodeBlock fills prefetcher-owned
// buffers that travel coordinator → worker → back here, so block N+1 is
// decoding while the shard worker simulates block N — and the decoded
// accesses are consumed in place, never copied through a pool buffer.
// Determinism is untouched: the decoded contents and their dispatch order
// are exactly what a synchronous NextBatch drain would have produced; only
// the wall-clock overlap differs.
type blockPrefetcher struct {
	out  chan []trace.Access // decoded blocks, in stream order
	free chan []trace.Access // consumed buffers returning for reuse
	cur  []trace.Access      // block the coordinator is currently slicing
	pos  int
	ring *obs.Gauge // decoded-blocks-queued occupancy of out
	wg   sync.WaitGroup
}

// ringGauge is the Default-registry gauge all block prefetchers publish
// their ring occupancy to (decoded blocks queued, summed across jobs): a
// value pinned at 0 during a slow run means simulation is starved on
// decode, a value pinned at prefetchDepth means decode is ahead and the
// simulation itself is the bottleneck. Visible on -pprof's /healthz and the
// daemon's /healthz.
const ringGauge = "vmm.prefetch.ring_occupancy"

// prefetchDepth is how many decoded blocks a prefetcher owns: one being
// consumed, one queued, one being decoded (double-buffered from the
// consumer's point of view).
const prefetchDepth = 3

// newBlockPrefetcher starts the decode goroutine for src. It exits when the
// stream is exhausted (Run always drains every job) after closing out.
func newBlockPrefetcher(src trace.BlockSource) *blockPrefetcher {
	p := &blockPrefetcher{
		out:  make(chan []trace.Access, prefetchDepth),
		free: make(chan []trace.Access, prefetchDepth),
	}
	for i := 0; i < prefetchDepth; i++ {
		p.free <- make([]trace.Access, trace.BlockAccesses)
	}
	p.ring = obs.Default().Gauge(ringGauge)
	p.wg.Add(1)
	go pprof.Do(context.Background(), pprof.Labels("pccsim", "block-prefetcher"), func(context.Context) {
		defer p.wg.Done()
		for buf := range p.free {
			n := src.DecodeBlock(buf[:cap(buf)])
			if n == 0 {
				close(p.out)
				return
			}
			p.out <- buf[:n]
			p.ring.Add(1)
		}
	})
	return p
}

// take returns up to max accesses of the prefetched stream in place. done
// reports a released buffer: when take consumed the last access of the
// current block, it returns the block's buffer, which the caller must send
// to p.free after the returned segment has been fully processed.
func (p *blockPrefetcher) take(max int) (seg, done []trace.Access) {
	if p.pos >= len(p.cur) {
		blk, ok := <-p.out
		if !ok {
			return nil, nil
		}
		p.ring.Add(-1)
		p.cur, p.pos = blk, 0
	}
	seg = p.cur[p.pos:]
	if len(seg) > max {
		seg = seg[:max]
	}
	p.pos += len(seg)
	if p.pos >= len(p.cur) {
		done = p.cur[:cap(p.cur)]
		p.cur, p.pos = nil, 0
	}
	return seg, done
}

// runSharded executes independent job groups on up to Config.Shards worker
// goroutines. The coordinator replicates the serial scheduler exactly — the
// same round-robin, the same batch boundaries, the same tick segmentation —
// but instead of executing each segment it dispatches it, tagged with its
// global clock position, to the worker owning the job's group. Each group's
// segments execute in dispatch order on a single worker, and distinct
// groups share no mutable state between barriers, so every access observes
// exactly the state and clock it would have observed serially. At each
// policy tick the coordinator waits for all in-flight work (the epoch
// barrier), syncs the clock, flushes deferred allocation counters, and runs
// the tick machinery — promotions, demotions, pressure, shootdowns — alone,
// in canonical order. Output is therefore byte-identical to runSerial.
func (m *Machine) runSharded(live []*liveJob, groupOf []int, groups int) {
	nw := m.cfg.Shards
	if nw > groups {
		nw = groups
	}

	pool := make(chan []trace.Access, nw*2+2)
	for i := 0; i < cap(pool); i++ {
		pool <- make([]trace.Access, jobSlice)
	}
	var inflight sync.WaitGroup // dispatched-but-unfinished tasks (the barrier)
	var workers sync.WaitGroup  // worker goroutine lifecycle
	execs := make([]*executor, nw)
	queues := make([]chan shardTask, nw)
	for w := 0; w < nw; w++ {
		ex := m.newExecutor()
		execs[w] = ex
		q := make(chan shardTask, 64)
		queues[w] = q
		workers.Add(1)
		go pprof.Do(context.Background(), pprof.Labels("pccsim", "shard-worker", "worker", strconv.Itoa(w)), func(context.Context) {
			defer workers.Done()
			for t := range q {
				if t.fin {
					t.j.Proc.finished = true
					t.j.Proc.RuntimeCycles = m.maxCycles(t.j.Cores)
				} else {
					ex.now = t.start
					ex.runSeg(t.j.Job, t.seg)
				}
				if t.buf != nil {
					t.freeTo <- t.buf
				}
				inflight.Done()
			}
		})
	}
	dispatch := func(w int, t shardTask) {
		inflight.Add(1)
		queues[w] <- t
	}
	barrier := func() {
		inflight.Wait()
		for _, ex := range execs {
			ex.flushAllocs()
		}
	}

	// Jobs over columnar block streams decode on their own prefetch
	// goroutine, overlapping decode with simulation; the rest are decoded
	// synchronously here into pool buffers.
	prefetch := make([]*blockPrefetcher, len(live))
	for ji, j := range live {
		if j.block != nil {
			prefetch[ji] = newBlockPrefetcher(j.block)
		}
	}

	globalNow := m.accessCount
	tickIfDue := func() {
		if globalNow >= m.nextTick {
			m.nextTick += m.cfg.PromotionInterval
			barrier()
			m.accessCount = globalNow
			m.pressureTick()
			m.lifecycleTick()
			if m.policy != nil {
				m.policy.Tick(m)
			}
			if m.cfg.AuditEveryTick {
				m.auditNow("after policy tick")
			}
		}
	}
	// dispatchSegs slices one decoded batch at tick boundaries and dispatches
	// the segments to worker w, exactly as the serial scheduler would have
	// executed them; buf/freeTo ride on the final segment.
	dispatchSegs := func(w int, j *liveJob, batch, buf []trace.Access, freeTo chan []trace.Access) {
		for len(batch) > 0 {
			seg := batch
			if until := m.nextTick - globalNow; uint64(len(seg)) > until {
				seg = seg[:until]
			}
			batch = batch[len(seg):]
			t := shardTask{j: j, seg: seg, start: globalNow}
			if len(batch) == 0 && buf != nil {
				t.buf, t.freeTo = buf, freeTo
			}
			dispatch(w, t)
			globalNow += uint64(len(seg))
			tickIfDue()
		}
	}

	remaining := len(live)
	for remaining > 0 {
		for ji, j := range live {
			if j.done {
				continue
			}
			w := groupOf[ji] % nw
			slice := jobSlice
			for slice > 0 {
				var n int
				if pf := prefetch[ji]; pf != nil {
					seg, done := pf.take(slice)
					if n = len(seg); n > 0 {
						slice -= n
						j.accesses += uint64(n)
						dispatchSegs(w, j, seg, done, pf.free)
					}
				} else {
					buf := <-pool
					if n = j.stream.NextBatch(buf[:slice]); n == 0 {
						pool <- buf
					} else {
						slice -= n
						j.accesses += uint64(n)
						dispatchSegs(w, j, buf[:n], buf, pool)
					}
				}
				if n == 0 {
					j.done = true
					remaining--
					// The completion record (finished flag, runtime = max
					// cycles over the job's cores) must observe all of the
					// group's prior work, so it runs on the group's worker,
					// behind its queue.
					dispatch(w, shardTask{j: j, fin: true})
					break
				}
			}
		}
	}
	for _, q := range queues {
		close(q)
	}
	workers.Wait()
	for _, pf := range prefetch {
		if pf != nil {
			// The decode goroutine has already closed out (its stream is
			// exhausted — that is what completed the job); Wait just pins
			// the lifecycle for the race detector and leak tests.
			pf.wg.Wait()
		}
	}
	for _, ex := range execs {
		ex.flushAllocs()
	}
	m.accessCount = globalNow
}

// runBatch simulates one batch of accesses for j, firing policy ticks at
// exactly the per-access points the unbatched loop did: the global access
// clock only advances inside step, so the distance to the next tick bounds
// a segment that needs no per-access tick check.
func (m *Machine) runBatch(ex *executor, j *Job, batch []trace.Access) {
	for len(batch) > 0 {
		seg := batch
		if until := m.nextTick - ex.now; uint64(len(seg)) > until {
			seg = seg[:until]
		}
		ex.runSeg(j, seg)
		batch = batch[len(seg):]
		if ex.now >= m.nextTick {
			m.nextTick += m.cfg.PromotionInterval
			m.accessCount = ex.now
			ex.flushAllocs()
			m.pressureTick()
			m.lifecycleTick()
			if m.policy != nil {
				m.policy.Tick(m)
			}
			if m.cfg.AuditEveryTick {
				m.auditNow("after policy tick")
			}
		}
	}
}

// runSeg advances one tick-free segment of j: single-core segments dispatch
// to the machine's monomorphized kernel (resolved once at machine build —
// see kernels.go), multi-core segments run the per-access step with the
// thread-to-core dispatch inline. Deferred per-segment state — the
// touched-bit run and the cores' buffered PCC records — flushes on exit,
// so everything that runs between segments (ticks, audits, state capture)
// observes fully-applied state.
func (ex *executor) runSeg(j *Job, seg []trace.Access) {
	if ex.effCPA = j.Proc.BaseCPA; ex.effCPA == 0 {
		ex.effCPA = ex.cBase
	}
	if len(j.Cores) == 1 {
		c := ex.m.cores[j.Cores[0]]
		ex.m.kern(ex, c, j.Proc, seg)
		ex.flushTouch()
		c.flushPCC()
		return
	}
	for i := range seg {
		ex.step(ex.m.cores[j.Cores[seg[i].Thread%len(j.Cores)]], j.Proc, seg[i].Addr)
	}
	ex.flushTouch()
	for _, ci := range j.Cores {
		ex.m.cores[ci].flushPCC()
	}
}

// maxCycles returns the max cycle count across the given core IDs.
func (m *Machine) maxCycles(cores []int) float64 {
	mx := 0.0
	for _, ci := range cores {
		if c := m.cores[ci].Cycles; c > mx {
			mx = c
		}
	}
	return mx
}

// step simulates one memory access by process p on core c — the multi-core
// per-access path, probing the register line and both persistent-table
// classes before falling back to the full pipeline.
func (ex *executor) step(c *Core, p *Process, addr mem.VirtAddr) {
	vpn := mem.PageNum(addr >> 12)
	proc := int32(p.ID)
	if c.l0Has && c.l0Proc == proc && c.l0Page4K == vpn {
		// Register-line hit: same core, process and 4KB page as this
		// core's previous full translation, so the translation is the MRU
		// way of its L1 set and the full pipeline below would change
		// nothing but counters.
		ex.now++
		c.Accesses++
		c.TLB.CountL1HitsIndexed(int(c.l0SI), 1)
		c.Cycles += c.l0Cost
		if ex.mlpOn {
			c.walkBurst = 0 // an L1 hit, even filter-served, breaks a walk burst
		}
		return
	}
	if s := &c.tt.slots4K[c.tt.idx4K(vpn)]; s.gen == c.tt.gen && s.page == vpn && s.proc == proc {
		// Table 4K hit: the page is still the MRU way of its L1-4K set.
		ex.now++
		c.Accesses++
		c.TLB.CountL1HitsIndexed(0, 1)
		c.Cycles += s.cost
		c.l0Has, c.l0SI, c.l0Proc, c.l0Page4K, c.l0Cost = true, 0, proc, vpn, s.cost
		if ex.mlpOn {
			c.walkBurst = 0
		}
		return
	}
	hpn := mem.PageNum(addr >> 21)
	if s := &c.tt.slots2M[c.tt.idx2M(hpn)]; s.gen == c.tt.gen && s.page == hpn && s.proc == proc {
		// Table 2M hit: a guaranteed L1-2M hit; only the 4KB page's
		// touched bit still needs recording.
		ex.now++
		c.Accesses++
		c.TLB.CountL1HitsIndexed(1, 1)
		c.Cycles += s.cost
		v := p.vmaOf(addr)
		ex.touch(v, uint64(addr-v.r.Start)>>12)
		c.l0Has, c.l0SI, c.l0Proc, c.l0Page4K, c.l0Cost = true, 1, proc, vpn, s.cost
		if ex.mlpOn {
			c.walkBurst = 0
		}
		return
	}
	ex.stepFull(c, p, addr)
}

// flushL0Hits folds a run of n deferred filter hits into the counters the
// per-access path would have bumped one at a time.
func (ex *executor) flushL0Hits(c *Core, si int, n uint64) {
	ex.now += n
	c.Accesses += n
	c.TLB.CountL1HitsIndexed(si, n)
	if ex.mlpOn {
		c.walkBurst = 0 // filter-served L1 hits break a walk burst
	}
}

// stepFull is the generic full translation pipeline for one access: VMA
// lookup, fault handling, TLB hierarchy, page table walk and PCC record
// buffering. Machines without NUMA or PTW-MLP run stepFullFast
// (kernels.go) instead, which is this routine with those branches
// monomorphized away.
func (ex *executor) stepFull(c *Core, p *Process, addr mem.VirtAddr) {
	m := ex.m
	ex.now++
	c.Accesses++

	v := p.vmaOf(addr)
	if v == nil {
		panicOutsideVMA(p, addr)
	}
	idx := uint64(addr-v.r.Start) >> 12
	var size mem.PageSize
	var si int
	if st := v.state[idx]; st != stateUnmapped {
		// Monotone bit: store directly (see stepFullFast).
		v.touched[idx] = true
		switch st {
		case state2M:
			size, si = mem.Page2M, 1
		case state1G:
			size, si = mem.Page1G, 2
		default:
			size = mem.Page4K
		}
	} else {
		size, si = ex.faultPath(c, p, v, idx, addr)
	}

	cost := ex.effCPA
	if m.numa != nil && m.numa.node(p, v, addr) != p.HomeNode {
		cost += m.numa.cfg.RemotePenalty
	}
	baseCost := cost

	switch c.TLB.Access(addr, size) {
	case tlb.HitL1:
		if ex.mlpOn {
			c.walkBurst = 0
		}
	case tlb.HitL2:
		cost += ex.cL2Hit
		if size == mem.Page2M {
			v.noteUse2M(addr, ex.now)
		}
		if ex.mlpOn {
			c.walkBurst = 0
		}
	default: // tlb.Miss → page table walk
		info := c.Walker.Walk(p.Table, addr)
		walk := ex.cWalkBase + float64(info.Levels)*ex.cWalkRef
		if w := m.cfg.PTWMLPWidth; w > 1 {
			// PTW MLP model: consecutive walks with no intervening TLB
			// hit are independent (no dependent loads between them in
			// this access model), so the walker overlaps walks 2..w of a
			// burst with the first, charging only the overlap fraction.
			c.walkBurst++
			if c.walkBurst > w {
				c.walkBurst = 1
			} else if c.walkBurst > 1 {
				walk *= m.cfg.PTWMLPOverlap
			}
		}
		cost += walk
		c.TLB.Fill(addr, size)
		if size == mem.Page2M {
			v.noteUse2M(addr, ex.now)
		}
		ex.recordWalk(c, info, size, addr)
	}
	c.Cycles += cost

	armL0(c, p, addr, si, baseCost)
}
