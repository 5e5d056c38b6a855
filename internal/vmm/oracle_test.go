package vmm

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"pccsim/internal/mem"
	"pccsim/internal/metrics"
	"pccsim/internal/trace"
)

// refRun is the reference pipeline the production run paths are checked
// against. Its plain round-robin gives each job a turn of jobSlice accesses
// and checks for a policy tick after every access. Every access clears its
// core's register line, runs the full translation step and applies its PCC
// records at once. So it has no register line, no translation table, no
// deferred hit counters or touched bits, no PCC batching and no tick
// segmentation: any drift in those shortcuts shows up as a difference from
// Run.
func refRun(m *Machine, jobs ...*Job) RunResult {
	live := make([]*liveJob, len(jobs))
	for i, j := range jobs {
		if len(j.Cores) == 0 {
			j.Cores = []int{0}
		}
		live[i] = &liveJob{Job: j, stream: trace.Batched(j.Stream)}
	}
	ex := m.newExecutor()
	ex.now = m.accessCount
	for remaining := len(live); remaining > 0; {
		for _, j := range live {
			if j.done {
				continue
			}
			if ex.effCPA = j.Proc.BaseCPA; ex.effCPA == 0 {
				ex.effCPA = metrics.BaseCPA
			}
			for turn := 0; turn < jobSlice; turn++ {
				a, ok := j.stream.Next()
				if !ok {
					j.done = true
					remaining--
					m.complete(j.Job)
					break
				}
				j.accesses++
				c := m.cores[j.Cores[a.Thread%len(j.Cores)]]
				c.clearL0()
				ex.stepFull(c, j.Proc, a.Addr)
				c.flushPCC()
				if ex.now >= m.nextTick {
					m.nextTick += m.cfg.PromotionInterval
					m.accessCount = ex.now
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
	}
	m.accessCount = ex.now
	if m.cfg.AuditEveryTick {
		m.auditNow("at end of run")
	}
	return m.collectResult(live)
}

// oracleStream draws n accesses over ranges with the locality mix real
// streams have: cache-line runs inside one 4KB page (register-line hits),
// page-stride sweeps (table hits, L1/L2 traffic), revisits of a hot 2MB
// region and far jumps (walks and faults). Thread IDs change every runLen
// accesses; runLen 1 switches thread on every access.
func oracleStream(rng *rand.Rand, ranges []mem.Range, n, runLen int) []trace.Access {
	acc := make([]trace.Access, 0, n)
	r := ranges[0]
	a := r.Start
	emit := func(addr mem.VirtAddr) {
		if len(acc) < n {
			acc = append(acc, trace.Access{Addr: addr, Thread: len(acc) / runLen % 3})
		}
	}
	for len(acc) < n {
		switch rng.Intn(4) {
		case 0:
			page := a &^ (mem.VirtAddr(mem.Page4K) - 1)
			for k, cnt := 0, 1+rng.Intn(32); k < cnt; k++ {
				emit(page + mem.VirtAddr(k%64)*64)
			}
		case 1:
			for k, cnt := 0, 1+rng.Intn(64); k < cnt; k++ {
				if a += mem.VirtAddr(mem.Page4K); a >= r.End {
					a = r.Start
				}
				emit(a)
			}
		case 2:
			hot := r.Start + mem.VirtAddr(rng.Intn(2))<<21
			for k, cnt := 0, 1+rng.Intn(16); k < cnt; k++ {
				emit(hot + mem.VirtAddr(rng.Intn(512))<<12)
			}
		default:
			r = ranges[rng.Intn(len(ranges))]
			a = r.Start + mem.VirtAddr(rng.Int63n(int64(r.Len())))&^63
			emit(a)
		}
	}
	return acc
}

// oracleSetup draws one random machine, policy and job set from seed. The
// configurations cover 1–3 cores per job with threads switching per access
// or in runs, one or two jobs (independent, or sharing a core), the three
// NUMA placements, the pressure model, lifecycle churn, tenant quotas, the
// 1GB PCC, the victim tracker, the cold-miss filter off, and four policies:
// none, a tick-time PCC promoter, a fault-time 2MB allocator, and a
// base-fault-only tick promoter.
func oracleSetup(seed int64) (simSetup, string) {
	rng := rand.New(rand.NewSource(seed))
	cfg := testConfig()
	cfg.Seed = seed
	cfg.PromotionInterval = uint64(1_000 + rng.Intn(4_000))
	cfg.FragFrac = []float64{0, 0.25, 0.5}[rng.Intn(3)]
	cfg.EventLogSize = 128
	desc := fmt.Sprintf("seed=%d tick=%d frag=%g", seed, cfg.PromotionInterval, cfg.FragFrac)
	if pol := rng.Intn(4); pol > 0 {
		cfg.NUMA = DefaultNUMAConfig()
		cfg.NUMA.Policy = NUMAPolicy(pol - 1)
		cfg.NUMA.LocalShare = 0.5
		desc += " numa=" + cfg.NUMA.Policy.String()
	}
	if rng.Intn(3) == 0 {
		cfg.Pressure = pressureConfig().Pressure
		desc += " pressure"
	}
	if rng.Intn(3) == 0 {
		cfg.Lifecycle = lifecycleConfig().Lifecycle
		desc += " churn"
	}
	switch rng.Intn(4) {
	case 1:
		cfg.Enable1G = true
		desc += " pcc1g"
	case 2:
		cfg.UseVictimTracker = true
		desc += " victim"
	case 3:
		cfg.DisableColdFilter = true
		desc += " no-cold-filter"
	}
	quotas := rng.Intn(2) == 0
	if quotas {
		cfg.MaxHugeBytesTotal = 12 << 21
		desc += " quotas"
	}
	policyKind := rng.Intn(4)
	desc += fmt.Sprintf(" policy=%d", policyKind)

	nJobs := 1 + rng.Intn(2)
	var cores [][]int
	next := 0
	for i := 0; i < nJobs; i++ {
		var cs []int
		for k, cnt := 0, 1+rng.Intn(3); k < cnt; k++ {
			cs = append(cs, next)
			next++
		}
		cores = append(cores, cs)
	}
	if nJobs == 2 && rng.Intn(4) == 0 {
		cores[1][0] = cores[0][0] // dependent jobs: one shared core
		desc += " shared-core"
	}
	cfg.Cores = next
	runLens := make([]int, nJobs)
	sizes := make([]int, nJobs)
	counts := make([]int, nJobs)
	for i := range runLens {
		runLens[i] = []int{1, 7, 64, 1_000}[rng.Intn(4)]
		sizes[i] = 3 + rng.Intn(4)
		counts[i] = 6_000 + rng.Intn(10_000)
	}
	desc += fmt.Sprintf(" cores=%v runs=%v", cores, runLens)
	streamSeed := rng.Int63()

	return simSetup{
		cfg: cfg,
		policy: func() Policy {
			switch policyKind {
			case 1:
				return promoteTopPolicy()
			case 2:
				return &funcPolicy{fault: func(*Machine, *Process, mem.VirtAddr) mem.PageSize { return mem.Page2M }}
			case 3:
				return &tickPromotePolicy{}
			}
			return nil
		},
		build: func(m *Machine) []*Job {
			srng := rand.New(rand.NewSource(streamSeed))
			var jobs []*Job
			for i := 0; i < nJobs; i++ {
				start := mem.VirtAddr(16<<20) + mem.VirtAddr(i)<<30
				ranges := []mem.Range{{Start: start, End: start + mem.VirtAddr(sizes[i])<<21}}
				if i == 1 {
					far := start + 64<<20
					ranges = append(ranges, mem.Range{Start: far, End: far + 2<<21})
				}
				tc := TenantConfig{Name: fmt.Sprintf("t%d", i), Ranges: ranges, BaseCPA: float64(8 + 2*i)}
				if m.cfg.NUMA.Nodes > 1 {
					tc.HomeNode = i
				}
				if quotas {
					if i == 0 {
						tc.HugeShare = 0.5
					} else {
						tc.MaxHugeBytes = 2 << 21
					}
				}
				p, err := m.AddTenant(tc)
				if err != nil {
					panic(err)
				}
				acc := oracleStream(srng, ranges, counts[i], runLens[i])
				jobs = append(jobs, &Job{Proc: p, Stream: trace.Slice(acc), Cores: cores[i]})
			}
			return jobs
		},
	}, desc
}

// oracleOutcome is everything the oracle comparison checks after a run.
type oracleOutcome struct {
	res     RunResult
	metrics map[string]float64
	state   MachineState
	audit   []string
}

func outcome(m *Machine, res RunResult) oracleOutcome {
	st := m.State()
	stripVolatile(&st)
	return oracleOutcome{res: res, metrics: m.Metrics(), state: st, audit: m.Audit()}
}

func (o oracleOutcome) diff(want oracleOutcome) string {
	switch {
	case !reflect.DeepEqual(o.res, want.res):
		return fmt.Sprintf("RunResult:\ngot  %+v\nwant %+v", o.res, want.res)
	case !reflect.DeepEqual(o.metrics, want.metrics):
		for k, v := range want.metrics {
			if o.metrics[k] != v {
				return fmt.Sprintf("Metrics()[%q] = %v, want %v", k, o.metrics[k], v)
			}
		}
		return "Metrics() key sets differ"
	case !reflect.DeepEqual(o.state, want.state):
		return "State() differs"
	case !reflect.DeepEqual(o.audit, want.audit):
		return fmt.Sprintf("Audit():\ngot  %v\nwant %v", o.audit, want.audit)
	}
	return ""
}

// TestRunMatchesReferencePipeline checks every production run path against
// refRun on random configurations (see checkRunMatchesReference).
func TestRunMatchesReferencePipeline(t *testing.T) {
	seeds := 24
	if testing.Short() {
		seeds = 6
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		checkRunMatchesReference(t, seed)
	}
}

// FuzzRunMatchesReference runs the same comparison on any configuration
// seed. The corpus in testdata/fuzz/FuzzRunMatchesReference replays under
// plain go test.
func FuzzRunMatchesReference(f *testing.F) {
	f.Fuzz(checkRunMatchesReference)
}

// checkRunMatchesReference runs oracleSetup(seed) through refRun and then
// through Run, and through StartRun/RunUntil stopped at random points before
// FinishRun. RunResult, Metrics(), State() (less the TLB recency clocks, see
// stripVolatile) and Audit() must all be identical.
func checkRunMatchesReference(t *testing.T, seed int64) {
	s, desc := oracleSetup(seed)
	mRef, jobsRef := s.newMachine()
	want := outcome(mRef, refRun(mRef, jobsRef...))
	if len(want.audit) > 0 {
		t.Fatalf("%s: reference run fails audit: %v", desc, want.audit)
	}
	m, jobs := s.newMachine()
	if d := outcome(m, m.Run(jobs...)).diff(want); d != "" {
		t.Errorf("%s: Run differs from the reference: %s", desc, d)
	}
	m, jobs = s.newMachine()
	if err := m.StartRun(jobs...); err != nil {
		t.Fatalf("%s: StartRun: %v", desc, err)
	}
	rng := rand.New(rand.NewSource(seed))
	var stops []uint64
	for stop := uint64(0); ; {
		stop += 1 + uint64(rng.Intn(9_000))
		if m.RunUntil(stop) {
			break
		}
		stops = append(stops, stop)
	}
	if d := outcome(m, m.FinishRun()).diff(want); d != "" {
		t.Errorf("%s: RunUntil stopped at %v differs from the reference: %s", desc, stops, d)
	}
}
