package ospolicy

import (
	"fmt"
	"sort"

	"pccsim/internal/mem"
	"pccsim/internal/obs"
	"pccsim/internal/pcc"
	"pccsim/internal/vmm"
)

// SelectionPolicy chooses how candidates from multiple per-core PCCs are
// merged into the per-interval promotion list (§3.3.2, kernel parameter
// promotion_policy).
type SelectionPolicy int

const (
	// HighestFrequency promotes the globally highest-frequency candidates
	// first (promotion_policy=1).
	HighestFrequency SelectionPolicy = iota
	// RoundRobin distributes promotions evenly across the PCCs
	// (promotion_policy=0), the fairness-first option.
	RoundRobin
)

func (s SelectionPolicy) String() string {
	switch s {
	case HighestFrequency:
		return "highest-freq"
	case RoundRobin:
		return "round-robin"
	}
	return fmt.Sprintf("SelectionPolicy(%d)", int(s))
}

// PCCEngineConfig tunes the PCC-driven OS promotion engine.
type PCCEngineConfig struct {
	// RegionsPerTick is the maximum promotions per interval (kernel
	// parameter regions_to_promote; paper default: the PCC capacity,
	// 128, shared across all PCCs).
	RegionsPerTick int
	// Selection merges candidates across per-core PCCs.
	Selection SelectionPolicy
	// EnableDemotion activates PCC-driven demotion under memory pressure
	// (§3.3.3): when no physical block is free, promoted regions that no
	// longer appear hot in any PCC are split to make room for hotter
	// pending candidates.
	EnableDemotion bool
	// MinFreq is the minimum candidate frequency worth promoting; 0
	// promotes anything the PCC has seen. The paper's ~100% budget point
	// promotes until the PCC runs dry, which corresponds to MinFreq 0.
	MinFreq uint32
	// Giga configures 1GB promotion (§3.2.3); zero value = disabled.
	Giga Giga1GConfig
}

// DefaultPCCEngineConfig returns the paper's defaults.
func DefaultPCCEngineConfig() PCCEngineConfig {
	return PCCEngineConfig{RegionsPerTick: 128, Selection: HighestFrequency}
}

// PCCEngine is the OS side of the paper's co-design: it consumes ranked
// candidate dumps from every core's 2MB PCC each interval and performs the
// promotions. Candidate-to-process attribution uses the core-to-process
// binding registered with Bind (in hardware the PCC is tagged by the address
// space that installed the entry).
type PCCEngine struct {
	cfg PCCEngineConfig
	// coreProc maps core ID -> process currently scheduled there.
	coreProc map[int]*vmm.Process
	// Idle-region tracking for demotion (§3.3.3): the engine samples the
	// last-miss timestamp of every promoted region each tick, flushing
	// its translations so hot regions refresh the timestamp before the
	// next sample. Regions idle for consecutive ticks become demotion
	// victims under memory pressure.
	lastSample map[demoteKey]uint64
	coldTicks  map[demoteKey]int

	// stats is the engine's own promotion ledger. Machine.Audit cross-checks
	// it against the per-process ground truth via AuditPolicy, so an engine
	// that double-promotes or loses track of a region fails loudly.
	stats engineStats
}

// engineStats counts the engine's OS-side activity.
type engineStats struct {
	Ticks      uint64
	Candidates uint64 // candidates surviving the MinFreq filter, all ticks
	Promoted2M uint64
	Promoted1G uint64
	Demoted2M  uint64
}

type demoteKey struct {
	pid  int
	base mem.VirtAddr
}

// NewPCCEngine builds the engine.
func NewPCCEngine(cfg PCCEngineConfig) *PCCEngine {
	if cfg.RegionsPerTick <= 0 {
		cfg.RegionsPerTick = 128
	}
	return &PCCEngine{
		cfg:        cfg,
		coreProc:   map[int]*vmm.Process{},
		lastSample: map[demoteKey]uint64{},
		coldTicks:  map[demoteKey]int{},
	}
}

// Bind records that core runs threads of proc (the OS knows the schedule;
// candidates dumped from that core's PCC belong to proc's address space).
func (e *PCCEngine) Bind(core int, proc *vmm.Process) { e.coreProc[core] = proc }

// OnProcessExit implements vmm.ProcessReaper: the dead process's core
// bindings are dropped the instant it exits, so no stale pointer survives
// into the next tick (AuditPolicy cross-checks this). Its idle-tracking
// samples and cold counters went with its address space
// (OnAddressSpaceTeardown).
func (e *PCCEngine) OnProcessExit(p *vmm.Process) {
	for core, q := range e.coreProc {
		if q == p {
			delete(e.coreProc, core)
		}
	}
}

// OnAddressSpaceTeardown implements vmm.AddressSpaceReaper: on exec the PID
// survives but every 2MB region the idle tracker was watching is unmapped,
// so the region-keyed ledgers reset (core bindings stay — the process keeps
// running).
func (e *PCCEngine) OnAddressSpaceTeardown(p *vmm.Process) {
	for k := range e.lastSample {
		if k.pid == p.ID {
			delete(e.lastSample, k)
		}
	}
	for k := range e.coldTicks {
		if k.pid == p.ID {
			delete(e.coldTicks, k)
		}
	}
}

// Name implements vmm.Policy.
func (e *PCCEngine) Name() string {
	return "PCC(" + e.cfg.Selection.String() + ")"
}

// BaseFaultOnly marks the fault path as base-pages-only, letting the
// machine devirtualize it (vmm.BaseFaultOnly).
func (e *PCCEngine) BaseFaultOnly() {}

// OnFault implements vmm.Policy: the PCC design keeps fault-time allocation
// at 4KB; huge pages come exclusively from informed promotion.
func (e *PCCEngine) OnFault(*vmm.Machine, *vmm.Process, mem.VirtAddr) mem.PageSize {
	return mem.Page4K
}

// candidate pairs a PCC dump entry with its owning process and source core.
type candidate struct {
	cand pcc.Candidate
	proc *vmm.Process
	core int
}

// Tick implements vmm.Policy: read PCC dumps, select up to RegionsPerTick
// candidates per the configured policy, promote them (with optional
// demotion to relieve memory pressure).
func (e *PCCEngine) Tick(m *vmm.Machine) {
	e.stats.Ticks++
	if e.cfg.EnableDemotion {
		e.sampleIdle(m)
	}
	if e.cfg.Giga.Enable {
		e.tick1G(m)
	}
	perCore := e.collect(m)
	if len(perCore) == 0 {
		return
	}
	total := 0
	for _, cs := range perCore {
		total += len(cs)
	}
	e.stats.Candidates += uint64(total)
	m.Notef("pcc.dump", "cores=%d candidates=%d", len(perCore), total)
	selected := e.sel(perCore)

	promoted := 0
	for _, c := range selected {
		if promoted >= e.cfg.RegionsPerTick {
			break
		}
		if c.proc.IsHuge2M(c.cand.Region.Base) {
			continue
		}
		err := m.Promote2M(c.proc, c.cand.Region.Base)
		if err == nil {
			promoted++
			e.stats.Promoted2M++
			continue
		}
		switch {
		case vmm.IsNoPhysicalBlock(err):
			if e.cfg.EnableDemotion && e.demoteOne(m, perCore) {
				if m.Promote2M(c.proc, c.cand.Region.Base) == nil {
					promoted++
					e.stats.Promoted2M++
					continue
				}
			}
			// Memory exhausted: stop trying this interval.
			return
		case vmm.IsBudgetExhausted(err):
			// This process hit its utility-curve cap; others may not
			// have.
			continue
		}
	}
}

// collect dumps every bound core's 2MB candidate source (the PCC or, in
// the §5.4.1 ablation, the L2-eviction victim tracker).
func (e *PCCEngine) collect(m *vmm.Machine) map[int][]candidate {
	out := map[int][]candidate{}
	for _, core := range m.Cores() {
		proc := e.coreProc[core.ID]
		src := core.Candidates2M()
		if proc == nil || src == nil {
			continue
		}
		dump := src.Dump()
		cs := make([]candidate, 0, len(dump))
		for _, d := range dump {
			if d.Freq < e.cfg.MinFreq {
				continue
			}
			cs = append(cs, candidate{cand: d, proc: proc, core: core.ID})
		}
		if len(cs) > 0 {
			out[core.ID] = cs
		}
	}
	return out
}

// sel merges per-core candidate lists into one ordered promotion list.
func (e *PCCEngine) sel(perCore map[int][]candidate) []candidate {
	cores := make([]int, 0, len(perCore))
	for c := range perCore {
		cores = append(cores, c)
	}
	sort.Ints(cores)

	var merged []candidate
	switch e.cfg.Selection {
	case HighestFrequency:
		for _, c := range cores {
			merged = append(merged, perCore[c]...)
		}
		sort.SliceStable(merged, func(i, j int) bool {
			return merged[i].cand.Freq > merged[j].cand.Freq
		})
	case RoundRobin:
		// Interleave: one candidate from each core's (already ranked)
		// list in turn.
		for depth := 0; ; depth++ {
			advanced := false
			for _, c := range cores {
				if depth < len(perCore[c]) {
					merged = append(merged, perCore[c][depth])
					advanced = true
				}
			}
			if !advanced {
				break
			}
		}
	}

	// Deduplicate regions (multiple cores may track the same region of a
	// shared address space); keep the first (highest-priority) instance.
	seen := map[string]bool{}
	dedup := merged[:0]
	for _, c := range merged {
		key := fmt.Sprintf("%d:%x", c.proc.ID, uint64(c.cand.Region.Base))
		if seen[key] {
			continue
		}
		seen[key] = true
		dedup = append(dedup, c)
	}
	return dedup
}

// sampleIdle advances the idle-region tracker: a promoted region whose
// last-miss timestamp did not move since the previous tick was not accessed
// this interval (its translations were flushed at the last sample, so any
// access would have missed). The PCC alone cannot see promoted-and-
// satisfied pages — this is the OS-side access information §3.3.3 says
// demotion needs (the multi-generation-LRU analogue).
func (e *PCCEngine) sampleIdle(m *vmm.Machine) {
	live := map[demoteKey]bool{}
	for _, p := range m.Procs() {
		for base := range m.Huge2MBases(p) {
			k := demoteKey{pid: p.ID, base: base}
			live[k] = true
			lu := m.HugeLastUse(p, base)
			if prev, seen := e.lastSample[k]; seen && lu == prev {
				e.coldTicks[k]++
			} else {
				e.coldTicks[k] = 0
			}
			e.lastSample[k] = lu
			m.InvalidateTranslations(p, base)
		}
	}
	for k := range e.coldTicks {
		if !live[k] {
			delete(e.coldTicks, k)
			delete(e.lastSample, k)
		}
	}
}

// demoteOne frees one physical block by splitting the longest-idle promoted
// region (§3.3.3) — one that has gone at least two full intervals without a
// single access. Returns whether a demotion happened. In workloads whose
// HUBs stay hot for the whole run this finds no victims, reproducing the
// paper's "negligible difference with demotion" result, while phased
// applications get their cold huge pages recycled.
func (e *PCCEngine) demoteOne(m *vmm.Machine, perCore map[int][]candidate) bool {
	victim, ok := e.selectVictim()
	if !ok {
		return false
	}
	for _, p := range m.Procs() {
		if p.ID == victim.pid {
			if m.Demote2M(p, victim.base) == nil {
				delete(e.coldTicks, victim)
				delete(e.lastSample, victim)
				e.stats.Demoted2M++
				return true
			}
		}
	}
	return false
}

// selectVictim picks the demotion victim: the coldest tracked region, with
// (pid, base) as a total tie-break. The tie-break must cover the process ID:
// the coldTicks iteration order is randomized, and two processes routinely
// hold regions at the same virtual base, so breaking ties on base alone left
// the winner to map order — a run-to-run non-determinism in which region got
// demoted.
func (e *PCCEngine) selectVictim() (demoteKey, bool) {
	const minColdTicks = 2
	var victim demoteKey
	best := -1
	for k, ct := range e.coldTicks {
		if ct < minColdTicks {
			continue
		}
		if ct > best ||
			(ct == best && (k.pid < victim.pid || (k.pid == victim.pid && k.base < victim.base))) {
			victim, best = k, ct
		}
	}
	return victim, best >= 0
}

// PublishMetrics implements vmm.MetricsPublisher.
func (e *PCCEngine) PublishMetrics(s obs.Snapshot) {
	s.Add("ospolicy.ticks", float64(e.stats.Ticks))
	s.Add("ospolicy.candidates", float64(e.stats.Candidates))
	s.Add("ospolicy.promoted.2m", float64(e.stats.Promoted2M))
	s.Add("ospolicy.promoted.1g", float64(e.stats.Promoted1G))
	s.Add("ospolicy.demoted.2m", float64(e.stats.Demoted2M))
}

// AuditPolicy implements vmm.PolicyAuditor: promotions come only from the
// engine and the lifecycle churn populate path, and demotions only from the
// engine and the pressure reclaim, so those ledgers plus the machine's
// reaped tallies must match the per-process ground truth exactly; every
// idle-tracking key and core binding must refer to a live process, and
// (absent 1GB/pressure interference) to a region still 2MB-mapped.
func (e *PCCEngine) AuditPolicy(m *vmm.Machine) []string {
	var bad []string
	var p2m, p1g, dem uint64
	livePID := map[int]bool{}
	for _, p := range m.Procs() {
		p2m += p.Promotions2M
		p1g += p.Promotions1G
		dem += p.Demotions
		livePID[p.ID] = true
	}
	reaped := m.Reaped()
	lifecycle := m.LifecycleStats()
	if e.stats.Promoted2M+lifecycle.Promotions2M != p2m+reaped.Promotions2M {
		bad = append(bad, fmt.Sprintf("ospolicy: engine promoted %d + lifecycle %d 2MB regions but processes record %d live + %d reaped",
			e.stats.Promoted2M, lifecycle.Promotions2M, p2m, reaped.Promotions2M))
	}
	if e.stats.Promoted1G != p1g+reaped.Promotions1G {
		bad = append(bad, fmt.Sprintf("ospolicy: engine promoted %d 1GB regions but processes record %d live + %d reaped",
			e.stats.Promoted1G, p1g, reaped.Promotions1G))
	}
	// Pressure demotions (the machine's watermark reclaim) also land in the
	// per-process Demotions tally without passing through the engine.
	if e.stats.Demoted2M+m.PressureDemotions != dem+reaped.Demotions {
		bad = append(bad, fmt.Sprintf("ospolicy: engine demoted %d regions + %d pressure demotions but processes record %d live + %d reaped",
			e.stats.Demoted2M, m.PressureDemotions, dem, reaped.Demotions))
	}
	// Ledger entries must never outlive their process (exit's teardown and
	// OnProcessExit prune them at the exit instant).
	for core, p := range e.coreProc {
		if !livePID[p.ID] {
			bad = append(bad, fmt.Sprintf("ospolicy: core %d bound to dead pid %d", core, p.ID))
		}
	}
	for k := range e.lastSample {
		if !livePID[k.pid] {
			bad = append(bad, fmt.Sprintf("ospolicy: idle sample references dead pid %d", k.pid))
		}
	}
	for k := range e.coldTicks {
		if !livePID[k.pid] {
			bad = append(bad, fmt.Sprintf("ospolicy: idle-tracker key references dead pid %d", k.pid))
		}
	}
	// 1GB promotion absorbs 2MB regions without passing through sampleIdle,
	// and pressure demotion splits them behind the engine's back — both
	// leave coldTicks keys stale until the next tick prunes them, so skip
	// the liveness check in those configurations.
	if !e.cfg.Giga.Enable && !m.Config().Pressure.Enable {
		for k := range e.coldTicks {
			live := false
			for _, p := range m.Procs() {
				if p.ID == k.pid && p.IsHuge2M(k.base) {
					live = true
					break
				}
			}
			if !live {
				bad = append(bad, fmt.Sprintf("ospolicy: idle-tracker key pid=%d base=%#x is not 2MB-mapped",
					k.pid, uint64(k.base)))
			}
		}
	}
	return bad
}
