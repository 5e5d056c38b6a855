package vmm

import (
	"fmt"
	"math/rand"
	"slices"

	"pccsim/internal/mem"
	"pccsim/internal/reprand"
)

// Process lifecycle churn: a host is never a fixed set of immortal
// processes. When enabled, the machine spawns, execs and exits short-lived
// "churn" processes at policy-tick boundaries, driven by a dedicated
// deterministic RNG stream (separate from the pressure stream, so enabling
// one never re-rolls the other). Churn processes own address spaces, fault
// in memory, take huge pages from the shared pool (competing with the
// measured tenants for budget and contiguity — the noisy neighbor), and are
// torn down completely on exit: frames return to physmem, every mapping
// goes, every cached translation for the dead ranges is shot down (TLBs,
// PWC, PCCs, the L0 register line and the persistent translation table via
// its generation bump), policy ledgers are notified through the reaper
// hooks, and NUMA placement ledgers forget the PID. Machine.Audit
// cross-checks that no ledger survives a dead PID.
//
// Everything runs at tick boundaries in canonical order (pressure tick,
// then lifecycle tick, then the OS policy tick), so results stay
// byte-identical at every worker and trace-cache setting and the whole
// mechanism stays off the per-access hot path.

// churnVABase is where churn address spaces live: far above any workload
// VMA so churn never aliases tenant addresses.
const churnVABase = mem.VirtAddr(1) << 40

// churnSlotStride spaces the reusable churn VA slots 1GB apart.
const churnSlotStride = mem.VirtAddr(1) << 30

// churnAddrSlots is how many distinct VA slots churn spawns rotate
// through. Deliberately small: successive generations reuse addresses, so
// any translation state surviving a teardown becomes visible corruption
// instead of silent garbage.
const churnAddrSlots = 4

// LifecycleConfig tunes process lifecycle churn. Enable gates everything.
type LifecycleConfig struct {
	// Enable turns lifecycle churn on.
	Enable bool
	// MaxProcs bounds live churn processes (default 4).
	MaxProcs int
	// SpawnProb / ExecProb / ExitProb are the per-tick probabilities of
	// spawning a new churn process, re-execing a random live one, and
	// exiting a random live one.
	SpawnProb float64
	ExecProb  float64
	ExitProb  float64
	// VMABytes sizes each churn address space (0 = 8MB; rounded up to a
	// 4KB multiple; at most the 1GB slot stride).
	VMABytes uint64
	// TouchFrac is the fraction of the VMA faulted in at spawn/exec
	// (0 = 0.5).
	TouchFrac float64
	// HugeRegions is how many leading 2MB regions each spawn/exec attempts
	// to promote (competing for the shared huge page pool; failures are
	// silent).
	HugeRegions int
	// MaxHugeBytes caps each churn process's huge-backed bytes
	// (0 = unlimited).
	MaxHugeBytes uint64
}

// DefaultLifecycleConfig returns moderate churn: up to four 8MB processes,
// half-touched, each trying for one huge page.
func DefaultLifecycleConfig() LifecycleConfig {
	return LifecycleConfig{
		Enable:      true,
		MaxProcs:    4,
		SpawnProb:   0.5,
		ExecProb:    0.25,
		ExitProb:    0.25,
		VMABytes:    8 << 20,
		TouchFrac:   0.5,
		HugeRegions: 1,
	}
}

// LifecycleStats counts lifecycle events on the machine. Exits and Execs
// include API-initiated ones (ExitProcess / ExecProcess), not only
// RNG-driven churn.
type LifecycleStats struct {
	Spawns       uint64
	Exits        uint64
	Execs        uint64
	Promotions2M uint64 // successful promotions performed by churn populate
}

// ReapedTallies accumulates the counters of exited processes, so
// machine-wide conservation invariants (promotions, demotions performed vs
// recorded) keep holding after the process that recorded them is gone.
type ReapedTallies struct {
	Promotions2M uint64
	Promotions1G uint64
	Demotions    uint64
	Faults       uint64
	HugeFaults   uint64
}

// ProcessReaper is implemented by OS policies that keep per-process ledgers
// the address space does not key (core bindings). The machine calls it on
// every process exit, after the process is unregistered, so no policy
// ledger entry outlives its PID. Exit's teardown has already called
// AddressSpaceReaper, so region-keyed ledgers need nothing more here.
type ProcessReaper interface {
	OnProcessExit(p *Process)
}

// AddressSpaceReaper is implemented by OS policies that key ledgers on
// virtual regions (idle trackers, coverage estimates, advice ranges). The
// machine calls it whenever a process's address space is torn down — exec as
// well as exit — because after exec the PID survives but every tracked
// region is gone.
type AddressSpaceReaper interface {
	OnAddressSpaceTeardown(p *Process)
}

// LifecycleStats returns the machine's lifecycle event counters.
func (m *Machine) LifecycleStats() LifecycleStats { return m.lifecycle }

// Reaped returns the accumulated counters of exited processes.
func (m *Machine) Reaped() ReapedTallies { return m.reaped }

// lifecycleRand lazily builds the lifecycle RNG stream. The seed constant
// differs from the pressure stream's (+17) so the two draw independently.
func (m *Machine) lifecycleRand() *rand.Rand {
	if m.lifeRNG == nil {
		m.lifeRNG = reprand.New(m.cfg.Seed*1_000_003 + 29)
	}
	return m.lifeRNG.Rand
}

// lifecycleTick runs one tick of lifecycle churn: maybe exit, maybe exec,
// maybe spawn — in that fixed order so the draw sequence is deterministic.
// Runs only at policy ticks (after the pressure tick, before the OS policy
// tick), between kernel segments.
func (m *Machine) lifecycleTick() {
	lc := m.cfg.Lifecycle
	if !lc.Enable {
		return
	}
	rng := m.lifecycleRand()
	var churn []*Process
	for _, p := range m.procs {
		if p.churn {
			churn = append(churn, p)
		}
	}
	if len(churn) > 0 && rng.Float64() < lc.ExitProb {
		i := rng.Intn(len(churn))
		if err := m.ExitProcess(churn[i]); err == nil {
			churn = append(churn[:i], churn[i+1:]...)
		}
	}
	if len(churn) > 0 && rng.Float64() < lc.ExecProb {
		p := churn[rng.Intn(len(churn))]
		if err := m.ExecProcess(p); err == nil {
			m.populateChurn(p)
		}
	}
	maxProcs := lc.MaxProcs
	if maxProcs <= 0 {
		maxProcs = 4
	}
	if len(churn) < maxProcs && rng.Float64() < lc.SpawnProb {
		m.spawnChurn()
	}
}

// spawnChurn registers a new churn process in the next VA slot and
// populates its address space.
func (m *Machine) spawnChurn() {
	lc := m.cfg.Lifecycle
	bytes := lc.VMABytes
	if bytes == 0 {
		bytes = 8 << 20
	}
	bytes = (bytes + uint64(mem.Page4K) - 1) &^ (uint64(mem.Page4K) - 1)
	slot := m.lifecycle.Spawns % churnAddrSlots
	start := churnVABase + mem.VirtAddr(slot)*churnSlotStride
	p := newProcess(m.nextPID, fmt.Sprintf("churn-%d", m.lifecycle.Spawns),
		[]mem.Range{{Start: start, End: start + mem.VirtAddr(bytes)}}, 0)
	m.nextPID++
	p.churn = true
	p.MaxHugeBytes = lc.MaxHugeBytes
	if m.numa != nil {
		p.HomeNode = int(m.lifecycle.Spawns) % m.cfg.NUMA.Nodes
	}
	m.procs = append(m.procs, p)
	m.lifecycle.Spawns++
	m.events.Recordf(m.accessCount, "spawn", "proc=%s pid=%d bytes=%d", p.Name, p.ID, bytes)
	m.populateChurn(p)
}

// populateChurn faults in the leading TouchFrac of the (empty) address
// space as base pages — background work, no core cycles — places the
// covered regions on NUMA nodes by first touch, and attempts the configured
// number of leading-region promotions through the normal Promote2M path
// (charging shootdown IPIs to every core: the noisy-neighbor interference).
func (m *Machine) populateChurn(p *Process) {
	lc := m.cfg.Lifecycle
	v := p.vmas[0]
	frac := lc.TouchFrac
	if frac == 0 {
		frac = 0.5
	}
	pages := uint64(float64(len(v.state)) * frac)
	if pages == 0 {
		pages = 1
	}
	if pages > uint64(len(v.state)) {
		pages = uint64(len(v.state))
	}
	for i := uint64(0); i < pages; i++ {
		v.map4K(i)
		v.touched[i] = true
		if m.numa != nil {
			m.numa.place(p, v.r.Start+mem.VirtAddr(i<<12))
		}
	}
	m.phys.AllocBase(pages)
	p.Faults += pages
	for i := 0; i < lc.HugeRegions; i++ {
		base := v.r.Start + mem.VirtAddr(i)<<21
		if !v.r.Contains(base) {
			break
		}
		if err := m.Promote2M(p, base); err == nil {
			m.lifecycle.Promotions2M++
		}
	}
}

// ExitProcess tears down p's address space and unregisters it. It refuses
// to exit a process with an unfinished job in an active run (the executors
// hold the process pointer). The teardown order is: the address space
// emptied and its huge blocks freed, cached translations shot down on every
// core, NUMA ledgers erased, the policy's AddressSpaceReaper hook, counters
// accumulated into the machine's reaped tallies, and finally the policy's
// ProcessReaper hook.
func (m *Machine) ExitProcess(p *Process) error {
	idx := slices.Index(m.procs, p)
	if idx < 0 {
		return fmt.Errorf("vmm: ExitProcess: process %d/%q is not registered", p.ID, p.Name)
	}
	if m.jobActive(p) {
		return fmt.Errorf("vmm: ExitProcess: process %q has an unfinished job in the active run", p.Name)
	}
	m.teardownAddressSpace(p)
	m.reaped.Promotions2M += p.Promotions2M
	m.reaped.Promotions1G += p.Promotions1G
	m.reaped.Demotions += p.Demotions
	m.reaped.Faults += p.Faults
	m.reaped.HugeFaults += p.HugeFaults
	m.procs = append(m.procs[:idx], m.procs[idx+1:]...)
	if r, ok := m.policy.(ProcessReaper); ok {
		r.OnProcessExit(p)
	}
	m.lifecycle.Exits++
	m.events.Recordf(m.accessCount, "exit", "proc=%s pid=%d", p.Name, p.ID)
	return nil
}

// ExecProcess tears down p's address space and rebuilds it empty — exec(2):
// same PID, same name, same counters, same VMA geometry, fresh memory
// (installed memory policies survive, as they attach to the VMAs).
func (m *Machine) ExecProcess(p *Process) error {
	if !slices.Contains(m.procs, p) {
		return fmt.Errorf("vmm: ExecProcess: process %d/%q is not registered", p.ID, p.Name)
	}
	if m.jobActive(p) {
		return fmt.Errorf("vmm: ExecProcess: process %q has an unfinished job in the active run", p.Name)
	}
	m.teardownAddressSpace(p)
	m.lifecycle.Execs++
	m.events.Recordf(m.accessCount, "exec", "proc=%s pid=%d", p.Name, p.ID)
	return nil
}

// teardownAddressSpace empties p's address space (Process.teardown), frees
// the physical blocks of its huge pages, shoots down every cached
// translation for the dead ranges (which also generation-bumps each core's
// persistent translation table, so a reused PID or VA slot can never
// revalidate a dead slot), and erases the NUMA placement ledgers.
func (m *Machine) teardownAddressSpace(p *Process) {
	n2M, n1G := p.teardown()
	for range n2M {
		m.phys.FreeHuge()
	}
	for range n1G {
		m.phys.FreeGiga()
	}
	for _, v := range p.vmas {
		m.shootdownAll(m.accessCount, v.r)
	}
	if m.numa != nil {
		m.numa.forget(p.ID)
	}
	if r, ok := m.policy.(AddressSpaceReaper); ok {
		r.OnAddressSpaceTeardown(p)
	}
}

// jobActive reports whether p has an unfinished job in the run in
// progress — its executor holds the process pointer, so teardown must
// wait.
func (m *Machine) jobActive(p *Process) bool {
	if m.sched != nil {
		for _, lj := range m.sched.live {
			if lj.Proc == p && !lj.done {
				return true
			}
		}
	}
	return false
}
