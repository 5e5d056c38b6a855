package vmm

import (
	"fmt"
	"math/rand"

	"pccsim/internal/mem"
	"pccsim/internal/metrics"
	"pccsim/internal/obs"
	"pccsim/internal/physmem"
	"pccsim/internal/reprand"
	"pccsim/internal/trace"
)

// Policy is the OS huge page management strategy plugged into the machine.
// Implementations live in internal/ospolicy.
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// OnFault decides the page size used to service a first-touch fault
	// on addr (Linux's synchronous THP path allocates 2MB here; every
	// other policy returns 4KB). Returning Page2M is a request: the
	// machine falls back to 4KB when no physical block is available or
	// the region is not eligible.
	OnFault(m *Machine, p *Process, addr mem.VirtAddr) mem.PageSize
	// Tick runs the periodic OS work (candidate selection, promotion,
	// demotion). Called every Config.PromotionInterval accesses.
	Tick(m *Machine)
}

// Machine is the simulated system under test.
type Machine struct {
	cfg    Config
	cores  []*Core
	procs  []*Process
	phys   *physmem.Memory
	policy Policy

	accessCount uint64 // global simulated-access clock
	nextTick    uint64

	// policyBase records, once at construction, whether the policy's
	// fault path is base-pages-only (nil policy or BaseFaultOnly marker):
	// the fault path then skips the OnFault interface call entirely.
	policyBase bool

	// numa is nil unless Config.NUMA enables multi-node modeling.
	numa *numaState

	// Background (async) promotion work accounting.
	BackgroundCycles float64

	// PromotionFailures counts promotions refused for lack of physical
	// blocks.
	PromotionFailures uint64

	// PressureDemotions counts 2MB pages the pressure model reclaimed
	// (demotions the OS policy did not ask for).
	PressureDemotions uint64

	// pressRNG drives the dynamic pressure model (see pressure.go); lazily
	// seeded from Config.Seed so it is independent of the fragmentation
	// stream. Wrapped in reprand so a snapshot can serialize its exact
	// stream position.
	pressRNG *reprand.Rand

	// lifeRNG drives process lifecycle churn (see lifecycle.go); its own
	// lazily-seeded stream, so enabling churn never perturbs the pressure
	// or fragmentation draws.
	lifeRNG *reprand.Rand

	// nextPID is the monotonically increasing process ID allocator. Never
	// reused after an exit: a recycled PID could revalidate proc-tagged
	// translation-table slots armed by the dead process.
	nextPID int

	// lifecycle counts spawn/exit/exec events; reaped accumulates the
	// counters of exited processes so machine-wide conservation invariants
	// survive process death.
	lifecycle LifecycleStats
	reaped    ReapedTallies

	// promotionLog records every successful 2MB promotion with its
	// simulated timestamp — the candidate trace of the paper's two-step
	// methodology (offline simulation writes it; replay consumes it).
	promotionLog []PromotionEvent

	// events is the bounded event trace (nil when Config.EventLogSize is 0;
	// every record through a nil log is a no-op).
	events *obs.EventLog

	// batchBuf is RunUntil's batch-drain buffer, allocated on first use and
	// reused across runs (benchmarks re-Run one machine many times).
	batchBuf []trace.Access

	// sched is the run in progress and its scheduler cursor (see
	// rununtil.go); nil between runs. Lifecycle teardown refuses processes
	// with unfinished jobs in it. pendingSched is a scheduler position
	// staged by RestoreState for the next StartRun to resume from.
	sched        *sched
	pendingSched *SchedState
}

// TestForceAudit, when true, forces AuditEveryTick on for every machine
// built afterwards. Test packages set it in TestMain so every simulated
// machine in the suite runs with the invariant auditor armed, making
// accounting regressions panic at the tick that introduced them instead of
// drifting a result curve.
var TestForceAudit bool

// PromotionEvent is one entry of the candidate trace: which region of which
// process was promoted, and when (in simulated accesses).
type PromotionEvent struct {
	AtAccess uint64
	ProcID   int
	Base     mem.VirtAddr
}

// PromotionLog returns a copy of the recorded candidate trace.
func (m *Machine) PromotionLog() []PromotionEvent {
	out := make([]PromotionEvent, len(m.promotionLog))
	copy(out, m.promotionLog)
	return out
}

// NewMachine builds a machine; policy may be nil (no OS huge page
// management beyond 4KB faults — the baseline). It panics with the
// *ConfigError of a config Validate refuses: entry points validate first,
// so only a programming error reaches the panic.
func NewMachine(cfg Config, policy Policy) *Machine {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if TestForceAudit {
		cfg.AuditEveryTick = true
	}
	_, baseOnly := policy.(BaseFaultOnly)
	m := &Machine{
		cfg:        cfg,
		phys:       physmem.New(cfg.Phys),
		policy:     policy,
		policyBase: policy == nil || baseOnly,
		nextTick:   cfg.PromotionInterval,
		numa:       newNUMAState(cfg.NUMA),
	}
	if cfg.EventLogSize != 0 {
		m.events = obs.NewEventLog(cfg.EventLogSize)
	}
	for i := 0; i < cfg.Cores; i++ {
		m.cores = append(m.cores, newCore(i, cfg))
	}
	if cfg.FragFrac > 0 {
		m.phys.Fragment(cfg.FragFrac, rand.New(rand.NewSource(cfg.Seed)))
	}
	return m
}

// Config returns the machine configuration.
func (m *Machine) Config() Config { return m.cfg }

// Cores returns the simulated cores.
func (m *Machine) Cores() []*Core { return m.cores }

// Core returns core i.
func (m *Machine) Core(i int) *Core { return m.cores[i] }

// Procs returns the registered processes.
func (m *Machine) Procs() []*Process { return m.procs }

// Phys exposes the physical memory model (policies consult availability).
func (m *Machine) Phys() *physmem.Memory { return m.phys }

// Policy returns the installed OS policy (nil for the bare baseline).
func (m *Machine) Policy() Policy { return m.policy }

// Now returns the global simulated access clock.
func (m *Machine) Now() uint64 { return m.accessCount }

// AddProcess registers an address space built from the given VMAs. IDs come
// from the machine's monotonic PID allocator and are never reused. It panics
// on VMAs validateRanges refuses (empty, inverted, unaligned, or ending past
// mem.VirtAddrLimit), as NewMachine panics on a config Validate refuses;
// AddTenant returns the same refusal as an error.
func (m *Machine) AddProcess(name string, ranges []mem.Range, baseCPA float64) *Process {
	if err := validateRanges(ranges); err != nil {
		panic(fmt.Errorf("vmm: AddProcess %s: %w", name, err))
	}
	p := newProcess(m.nextPID, name, ranges, baseCPA)
	m.nextPID++
	m.procs = append(m.procs, p)
	return p
}

// fault services a first-touch page fault at addr on the given core,
// consulting the policy for a huge allocation, and charges the fault cost.
// It runs on the executor because the fault timestamp is the access clock
// (ex.now).
func (ex *executor) fault(c *Core, p *Process, addr mem.VirtAddr) {
	m := ex.m
	p.Faults++
	if !m.policyBase {
		// Dispatch resolved once per machine: base-fault-only policies
		// never see this call.
		if want := m.policy.OnFault(m, p, addr); want == mem.Page2M {
			if r, v, ok := p.regionEligible2M(addr); ok && !m.overHugeBudget(p) {
				mapped4k, _ := p.mappedPagesIn(v, r)
				if migrated, allocOK := m.phys.AllocHuge(); allocOK {
					// Synchronous THP allocation: zeroing 2MB plus any
					// direct compaction, charged to the faulting core.
					cost := metrics.FaultBase + metrics.FaultHugeZero +
						float64(migrated)*metrics.CompactPer4K
					if migrated > 0 {
						cost += metrics.DirectCompactStall
						m.events.Recordf(ex.now, "compaction", "proc=%s migrated=%d (fault)", p.Name, migrated)
					}
					c.Cycles += cost
					c.StallCycles += cost
					p.map2M(v, r, ex.now)
					p.HugeFaults++
					m.events.Recordf(ex.now, "fault.huge", "proc=%s base=%#x", p.Name, uint64(r.Base))
					if mapped4k > 0 {
						// The region had live 4KB PTEs before the collapse
						// (an earlier huge allocation failed and faults fell
						// back to base pages); their cached translations must
						// not survive the remap.
						m.shootdownAll(ex.now, mem.Range{Start: r.Base, End: r.End()})
					}
					return
				}
				m.PromotionFailures++
			}
		}
	}
	// Base page fault.
	c.Cycles += metrics.FaultBase
	c.StallCycles += metrics.FaultBase
	v := p.vmaOf(addr)
	v.map4K(uint64(addr-v.r.Start) >> 12)
	m.phys.AllocBase(1)
}

func (m *Machine) overHugeBudget(p *Process) bool {
	if p.MaxHugeBytes > 0 && p.HugeBytes()+uint64(mem.Page2M) > p.MaxHugeBytes {
		return true
	}
	if m.cfg.MaxHugeBytesTotal > 0 &&
		m.TotalHugeBytes()+uint64(mem.Page2M) > m.cfg.MaxHugeBytesTotal {
		return true
	}
	return false
}

// TotalHugeBytes sums huge-backed bytes across all processes.
func (m *Machine) TotalHugeBytes() uint64 {
	var total uint64
	for _, p := range m.procs {
		total += p.HugeBytes()
	}
	return total
}

// shootdownAll invalidates the range on every core: TLBs, walker PWC, and
// PCC entries (the paper's rule that a TLB shootdown for a region drops the
// region from the PCC, so no stale candidate survives). now is the access
// clock to stamp the event with — tick-time callers pass m.accessCount, the
// fault path its executor clock.
func (m *Machine) shootdownAll(now uint64, r mem.Range) {
	dropped := 0
	for _, c := range m.cores {
		c.clearL0()
		// Buffered walk-path PCC records precede this shootdown in access
		// order; apply them before the invalidate drops the region.
		c.flushPCC()
		dropped += c.TLB.Shootdown(r)
		c.Walker.InvalidateRange(r)
		if c.PCC2M != nil {
			c.PCC2M.InvalidateRange(r)
		}
		if c.PCC1G != nil {
			c.PCC1G.InvalidateRange(r)
		}
		if c.Victim != nil {
			c.Victim.InvalidateRange(r)
		}
	}
	m.events.Recordf(now, "shootdown", "range=%#x-%#x dropped=%d", uint64(r.Start), uint64(r.End), dropped)
}

// chargeAll adds cycles to every core (shootdown IPIs interrupt everyone).
func (m *Machine) chargeAll(cycles float64) {
	for _, c := range m.cores {
		c.Cycles += cycles
		c.StallCycles += cycles
	}
}

// Promote2M promotes the 2MB region containing addr in process p: allocates
// a physical block (compacting if needed), faults in any unmapped tail,
// maps the region as one 2MB leaf, performs the shootdown and charges
// costs. Async (daemon-driven) promotion charges copy/compaction work to
// the background with only asyncVisibleFrac leaking into cores.
func (m *Machine) Promote2M(p *Process, addr mem.VirtAddr) error {
	r, v, ok := p.regionEligible2M(addr)
	if !ok {
		return promoteErr(PromoteVMABoundary, "region spans VMA boundary")
	}
	if p.IsHuge2M(r.Base) {
		return promoteErr(PromoteAlreadyHuge, "already huge")
	}
	if m.overHugeBudget(p) {
		return promoteErr(PromoteBudgetExhausted, "budget exhausted")
	}
	mapped4k, _ := p.mappedPagesIn(v, r)
	if mapped4k == 0 {
		return promoteErr(PromoteUntouched, "region untouched")
	}
	migrated, allocOK := m.phys.AllocHuge()
	if !allocOK {
		m.PromotionFailures++
		return promoteErr(PromoteNoPhysicalBlock, "no physical block available")
	}

	// Background work: copy the mapped pages into the new block, migrate
	// frames for compaction.
	work := float64(mapped4k)*metrics.PromoteCopyPer4K +
		float64(migrated)*metrics.CompactPer4K
	m.BackgroundCycles += work
	m.chargeAll(metrics.PromoteFixed + work*asyncVisibleFrac)

	// Remap: the whole region becomes one 2MB mapping.
	p.map2M(v, r, m.accessCount)
	p.Promotions2M++
	m.promotionLog = append(m.promotionLog, PromotionEvent{
		AtAccess: m.accessCount, ProcID: p.ID, Base: r.Base,
	})
	if migrated > 0 {
		m.events.Recordf(m.accessCount, "compaction", "proc=%s migrated=%d (promote)", p.Name, migrated)
	}
	m.events.Recordf(m.accessCount, "promote2m", "proc=%s base=%#x mapped4k=%d", p.Name, uint64(r.Base), mapped4k)

	m.shootdownAll(m.accessCount, mem.Range{Start: r.Base, End: r.End()})
	return nil
}

// Demote2M splits the 2MB mapping at the region containing addr back into
// 4KB pages and frees its physical block for reuse.
func (m *Machine) Demote2M(p *Process, addr mem.VirtAddr) error {
	base := mem.PageBase(addr, mem.Page2M)
	if !p.IsHuge2M(base) {
		return promoteErr(PromoteNotMapped, "not a 2MB mapping")
	}
	v := p.vmaOf(base)
	if v == nil {
		return promoteErr(PromoteVMABoundary, "outside VMAs")
	}
	r := mem.Region{Base: base, Size: mem.Page2M}
	p.demote2M(v, base)
	p.Demotions++
	m.phys.FreeHuge()
	m.chargeAll(metrics.PromoteFixed)
	m.events.Recordf(m.accessCount, "demote2m", "proc=%s base=%#x", p.Name, uint64(base))
	m.shootdownAll(m.accessCount, mem.Range{Start: base, End: r.End()})
	return nil
}

// Huge2MBases returns the promoted 2MB region bases of p with their
// promotion timestamps (policies use this for demotion candidate search).
func (m *Machine) Huge2MBases(p *Process) map[mem.VirtAddr]uint64 {
	out := make(map[mem.VirtAddr]uint64, len(p.huge2M))
	for k, vts := range p.huge2M {
		out[k] = vts
	}
	return out
}

// HugeLastUse returns the last simulated time the promoted 2MB region at
// base missed the L1 TLB (0 if never since promotion). Policies combine it
// with InvalidateTranslations to implement idle-region tracking: flushing
// the translation forces a genuinely hot region to miss — and so refresh
// this timestamp — before the next sample.
func (m *Machine) HugeLastUse(p *Process, base mem.VirtAddr) uint64 {
	return p.hugeLastUseAt(base)
}

// InvalidateTranslations flushes the cached translations for the 2MB region
// at base on every core (TLBs and page-walk caches) without changing the
// mapping — the OS's idle-page-tracking flush. The next access to the
// region re-walks, re-setting accessed state.
func (m *Machine) InvalidateTranslations(p *Process, base mem.VirtAddr) {
	base = mem.PageBase(base, mem.Page2M)
	r := mem.Range{Start: base, End: base + mem.VirtAddr(mem.Page2M)}
	for _, c := range m.cores {
		c.clearL0()
		c.TLB.Shootdown(r)
		c.Walker.InvalidateRange(r)
	}
}

func (m *Machine) String() string {
	name := "none"
	if m.policy != nil {
		name = m.policy.Name()
	}
	return fmt.Sprintf("Machine{cores=%d procs=%d policy=%s %v}",
		len(m.cores), len(m.procs), name, m.phys)
}
