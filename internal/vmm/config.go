// Package vmm assembles the full simulated machine the experiments run on:
// per-core TLB hierarchies, page table walkers and promotion candidate
// caches; per-process address spaces (mappings and accessed bits); the
// physical memory model; the OS policy hook that performs huge page
// promotion and demotion; and the cycle accounting that turns simulated
// events into runtime estimates.
package vmm

import (
	"pccsim/internal/mem"
	"pccsim/internal/pcc"
	"pccsim/internal/physmem"
	"pccsim/internal/ptw"
	"pccsim/internal/tlb"
)

// Config describes one simulated machine.
type Config struct {
	// Cores is the number of simulated cores (each gets its own TLB
	// hierarchy, walker and PCCs).
	Cores int
	// TLB configures each core's TLB hierarchy.
	TLB tlb.HierarchyConfig
	// PCC2M configures the per-core 2MB promotion candidate cache.
	PCC2M pcc.Config
	// EnablePCC turns the PCC hardware on. Baseline and ideal
	// configurations run with it off (it has no performance effect either
	// way; disabling it just silences tracking).
	EnablePCC bool
	// UseVictimTracker replaces the PCC with the §5.4.1 design
	// alternative: a victim structure fed by L2-TLB evictions instead of
	// access-bit-gated page table walks, with the same entry count. Used
	// by the ablation experiments to quantify the pollution the paper
	// predicts.
	UseVictimTracker bool
	// Enable1G additionally tracks 1GB-granularity candidates (§3.2.3)
	// in a per-core pcc.DefaultConfig1G PCC.
	Enable1G bool
	// Phys sizes the physical memory model.
	Phys physmem.Config
	// FragFrac fragments physical memory at startup: the fraction of 2MB
	// blocks receiving one unmovable page (0 = pristine memory).
	FragFrac float64
	// Seed drives the deterministic fragmentation placement.
	Seed int64
	// PromotionInterval is the number of simulated accesses between OS
	// policy ticks (the paper's 30s interval, calibrated by access rate).
	PromotionInterval uint64
	// DisableColdFilter bypasses the accessed-bit cold-miss filter so
	// every walk inserts into the PCC (ablation §3.2: without the filter,
	// cold and streamed data pollutes the candidate cache).
	DisableColdFilter bool
	// MaxHugeBytesTotal caps huge-backed bytes across *all* processes
	// (the multiprocess utility-curve budget of §5.3, where huge pages
	// are a shared system resource). 0 means unlimited.
	MaxHugeBytesTotal uint64
	// NUMA enables the multi-node memory model (zero value: single node,
	// the bound configuration the paper's methodology uses everywhere).
	NUMA NUMAConfig
	// Pressure configures dynamic memory pressure: per-tick allocation/free
	// churn, the background compaction daemon, and demotion under free-block
	// watermark pressure. The zero value disables all of it, preserving the
	// static fragment-once model.
	Pressure PressureConfig
	// Lifecycle configures process lifecycle churn: spawn/exec/exit of
	// machine-owned background processes at tick boundaries, driven by a
	// dedicated deterministic RNG stream. The zero value disables it.
	Lifecycle LifecycleConfig
	// Shards is ignored: every run executes on the calling goroutine.
	// Validate still bounds it to [0, MaxCores]; the field stays only until
	// the benchmark harness stops assigning it.
	Shards int
	// EventLogSize enables the machine's event trace (promotions, demotions,
	// shootdowns, compactions, policy dumps) with a ring bound of that many
	// events. 0 disables tracing entirely (zero overhead); negative uses
	// obs.DefaultEventLogSize.
	EventLogSize int
	// AuditEveryTick runs the invariant auditor after every policy tick and
	// at end of run, panicking on the first violation. Test harnesses force
	// it on via TestForceAudit so accounting bugs fail loudly.
	AuditEveryTick bool
}

// DefaultConfig returns the Table 2 machine: one core, Haswell-style TLBs,
// 128-entry 2MB PCC, 4GB physical memory, promotion tick every 2M
// accesses. Events are priced by the metrics cost model.
func DefaultConfig() Config {
	return Config{
		Cores:             1,
		TLB:               tlb.DefaultHierarchyConfig(),
		PCC2M:             pcc.DefaultConfig2M(),
		EnablePCC:         true,
		Phys:              physmem.DefaultConfig(),
		Seed:              1,
		PromotionInterval: 2_000_000,
	}
}

// asyncVisibleFrac is the fraction of background promotion work (copy +
// compaction cycles) that leaks into application runtime (lock contention,
// memory bandwidth interference). Fault-time (synchronous) work is always
// charged in full.
const asyncVisibleFrac = 0.15

// Core is one simulated CPU core: its private translation hardware plus
// cycle accounting.
type Core struct {
	ID     int
	TLB    *tlb.Hierarchy
	Walker *ptw.Walker
	PCC2M  *pcc.PCC
	PCC1G  *pcc.PCC
	// Victim is the §5.4.1 alternative candidate source, populated
	// instead of PCC2M when Config.UseVictimTracker is set.
	Victim *pcc.VictimTracker

	// Cycles is the modeled execution time of work issued on this core.
	Cycles float64
	// Accesses counts memory references simulated on this core.
	Accesses uint64
	// StallCycles is the subset of Cycles due to OS promotion machinery
	// (fault-time huge allocation, shootdowns, visible async work).
	StallCycles float64

	// The core's software translation front end has two lines.
	//
	// l0Has/l0SI/l0Proc/l0Page4K/l0Cost are line 0 — the single-entry MRU
	// register line: the process (by ID, so arming stores no pointer and
	// incurs no write barrier), size-class index, 4KB page and base cycle
	// cost of the last access this core fully translated. A repeat access
	// to the same page is by construction an L1 TLB hit on the MRU way of
	// its set, so the kernels can count and charge it without re-running
	// the translation pipeline — skipping the recency re-stamp of an
	// already-MRU entry changes no replacement decision, which keeps
	// results bit-identical.
	//
	// tt is the persistent software translation table behind it — one slot
	// per L1 set for the 4KB and 2MB classes, surviving across steps,
	// segments and Run calls. See transtable.go for the structure and the
	// soundness argument.
	//
	// Any shootdown or translation flush invalidates the register line and
	// the whole table in O(1) via a generation bump (clearL0), so no entry
	// outlives the TLB entry it mirrors.
	l0Has    bool
	l0SI     int8
	l0Proc   int32
	l0Page4K mem.PageNum
	l0Cost   float64

	tt transTable

	// pend2M/pend1G buffer post-cold-filter PCC record addresses from the
	// walk path; the kernels flush them (RecordBatch, in walk order) at
	// segment boundaries and before any PCC reader, so the per-access body
	// never calls into the pcc package. Capacity is fixed: the flush-when-
	// full check in the walk path keeps append from ever growing them.
	pend2M []mem.VirtAddr
	pend1G []mem.VirtAddr
}

// clearL0 drops the core's register line and entire persistent translation
// table (called on any shootdown or translation invalidation that could
// touch a mirrored entry, and on snapshot restore). O(1): a generation
// bump, never a clear loop.
func (c *Core) clearL0() {
	c.l0Has = false
	c.tt.invalidate()
}

// flushPCC applies the core's buffered walk-path PCC records, in the exact
// order the walks recorded them. It runs at every segment end and before
// every shootdown's PCC invalidate — the only two places buffered records
// can be pending. All other PCC readers (audits, policy ticks, state
// capture) execute strictly between segments, where the buffers are empty.
func (c *Core) flushPCC() {
	if len(c.pend2M) > 0 {
		c.PCC2M.RecordBatch(c.pend2M)
		c.pend2M = c.pend2M[:0]
	}
	if len(c.pend1G) > 0 {
		c.PCC1G.RecordBatch(c.pend1G)
		c.pend1G = c.pend1G[:0]
	}
}

// Candidates2M returns whichever 2MB candidate source the core is built
// with (the PCC or the victim tracker), or nil when tracking is off. OS
// policies use this so they work with either hardware design unchanged.
func (c *Core) Candidates2M() pcc.Tracker {
	if c.Victim != nil {
		return c.Victim
	}
	if c.PCC2M != nil {
		return c.PCC2M
	}
	return nil
}

func newCore(id int, cfg Config) *Core {
	c := &Core{
		ID:     id,
		TLB:    tlb.NewHierarchy(cfg.TLB),
		Walker: ptw.NewWalker(),
	}
	c.tt = newTransTable(c.TLB.L1(mem.Page4K).Sets(), c.TLB.L1(mem.Page2M).Sets())
	switch {
	case cfg.UseVictimTracker:
		c.Victim = pcc.NewVictimTracker(cfg.PCC2M.Entries)
		// Feed the tracker from L2-TLB capacity evictions of 4KB
		// translations.
		c.TLB.L2().OnEvict = func(vpn mem.PageNum, size mem.PageSize) {
			if size == mem.Page4K {
				c.Victim.Record(mem.VirtAddr(uint64(vpn) << size.Shift()))
			}
		}
	case cfg.EnablePCC:
		c.PCC2M = pcc.New(cfg.PCC2M)
		c.pend2M = make([]mem.VirtAddr, 0, pccPendCap)
		if cfg.Enable1G {
			c.PCC1G = pcc.New(pcc.DefaultConfig1G())
			c.pend1G = make([]mem.VirtAddr, 0, pccPendCap)
		}
	}
	return c
}

// pccPendCap bounds a core's buffered walk-path PCC records between
// flushes; the walk path flushes early when the buffer fills, so segments
// of any length run without growing it.
const pccPendCap = 256
