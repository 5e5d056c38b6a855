package vmm

import (
	"fmt"
	"sort"

	"pccsim/internal/mem"
	"pccsim/internal/obs"
	"pccsim/internal/pcc"
	"pccsim/internal/physmem"
	"pccsim/internal/ptw"
	"pccsim/internal/reprand"
	"pccsim/internal/tlb"
)

// Checkpoint/restore state surface. A MachineState captures everything a
// machine mutates during a run — translation hardware, address space state
// (mappings and accessed bits), the physical memory model, policy ledgers,
// RNG stream positions, the event trace and the scheduler position — such
// that restoring it into a freshly constructed machine (same Config, same
// AddProcess calls, same policy) and resuming produces output bit-identical
// to the uninterrupted run.
//
// Two pieces of hot-path state are deliberately NOT serialized, with an
// invalidate-on-restore rule instead:
//
//   - The per-core L0 step filter (single-entry MRU + wide 4KB table).
//     RestoreState clears it (clearL0), which is always sound: an access the
//     uninterrupted run would have served from the filter re-runs the full
//     pipeline on resume, hits the L1 TLB on the MRU way of its set (that is
//     the filter's arming invariant), charges the same cost, bumps the same
//     counters, and re-arms the filter. The only divergence is each TLB's
//     internal recency tick advancing, which no output, metric or audit
//     observes.
//
//   - Each process's lastVMA lookup cache, which only memoizes a pure
//     function of the access address.
//
// Everything else — including the TLB recency clocks and PCC insertion
// ticks — is carried exactly.

// StatefulPolicy is implemented by OS policies that accumulate state across
// ticks (candidate ledgers, sampling RNGs, scan cursors). PolicyState
// returns a self-contained, deep-copied, gob-encodable value (no maps — see
// the determinism note on MachineState); RestorePolicyState installs such a
// value into a freshly constructed policy of the same type. Policies without
// cross-tick state simply don't implement the interface.
type StatefulPolicy interface {
	Policy
	PolicyState() any
	RestorePolicyState(m *Machine, st any) error
}

// CoreState is one core's serializable state. PCC2M/PCC1G/Victim are nil
// exactly when the corresponding structure is absent from the configuration.
type CoreState struct {
	TLB    tlb.HierarchyState
	Walker ptw.WalkerState
	PCC2M  *pcc.State
	PCC1G  *pcc.State
	Victim *pcc.VictimState

	Cycles      float64
	Accesses    uint64
	StallCycles float64
}

// VMAState is the flat mapping/touch/liveness state of one VMA, with the
// PTE accessed bit of each page (Accessed, indexed like State). Geometry
// (the range itself) is construction input and only validated.
type VMAState struct {
	State     []uint8
	Touched   []bool
	LastUse2M []uint64
	Accessed  []bool
}

// HugePageState is one promoted region: its base and promotion timestamp.
// Inventories are serialized as base-sorted slices, never as Go maps, so the
// encoded bytes are deterministic.
type HugePageState struct {
	Base mem.VirtAddr
	At   uint64
}

// ProcessState is one address space's serializable state. Ranges carries
// the VMA geometry: for construction-registered processes it is validated
// against the builder's AddProcess calls; for machine-spawned churn
// processes (Churn true) it is the construction input — restore rebuilds
// the address space from it, since no builder re-registers churn
// processes. VMAPolicies is the per-VMA NUMA memory policy, index-aligned
// with VMAs. PMD and PUD are the accessed bits of the 2MB and 1GB regions
// the VMAs reach, one per region in address order. Restore refuses a
// process whose Ranges or VMAPolicies do not cover each of its VMAs.
type ProcessState struct {
	ID   int
	Name string

	VMAs []VMAState
	PMD  []bool
	PUD  []bool

	Churn       bool
	Ranges      []mem.Range
	VMAPolicies []VMAMemPolicy

	BaseCPA      float64
	HomeNode     int
	MaxHugeBytes uint64

	Huge2M []HugePageState
	Huge1G []HugePageState

	Promotions2M uint64
	Promotions1G uint64
	Demotions    uint64
	Faults       uint64
	HugeFaults   uint64

	RuntimeCycles float64
	Finished      bool
}

// NUMAPlacement is one first-touch placement decision.
type NUMAPlacement struct {
	PID  int
	Base mem.VirtAddr
	Node int
}

// NUMARegionCount is one process's placement counter (drives interleave and
// local-first decisions).
type NUMARegionCount struct {
	PID   int
	Count int
}

// SchedState is the interruptible runner's position (see RunUntil): which
// job the round-robin is on, how much of its slice remains, how many
// accesses each job's stream has consumed, and which jobs have completed.
// Nil when no run is in progress.
type SchedState struct {
	JobIdx    int
	SliceLeft int
	Consumed  []uint64
	Done      []bool
}

// MachineState is the full serializable state of a Machine mid- or post-run.
// Every collection is a slice in deterministic order (maps are converted to
// sorted slices), so encoding the same state twice yields identical bytes.
type MachineState struct {
	AccessCount uint64
	NextTick    uint64

	Cores []CoreState
	Procs []ProcessState
	Phys  physmem.State

	NUMAPlacements []NUMAPlacement
	NUMARegions    []NUMARegionCount

	BackgroundCycles  float64
	PromotionFailures uint64
	PressureDemotions uint64

	// PressureRNGSteps pins the pressure model's RNG stream position
	// (reprand); 0 means the stream was never drawn from, which restores as
	// the lazily-initialized state.
	PressureRNGSteps uint64

	// LifecycleRNGSteps pins the lifecycle churn RNG stream position, with
	// the same never-drawn convention. NextPID is the monotonic process ID
	// allocator; restore refuses one that is not above every restored
	// process ID. Lifecycle and Reaped carry the churn event counters and
	// the exited-process tallies.
	LifecycleRNGSteps uint64
	NextPID           int
	Lifecycle         LifecycleStats
	Reaped            ReapedTallies

	PromotionLog []PromotionEvent
	Events       obs.EventLogState

	// PolicyName names the installed policy ("" for none); restore refuses a
	// mismatch. PolicyState carries the policy's ledgers when the policy is
	// a StatefulPolicy (the concrete type must be gob-registered by its
	// package).
	PolicyName  string
	PolicyState any

	Sched *SchedState
}

// State captures a deep copy of the machine's complete mutable state. Safe
// between any two RunUntil calls (and after Run); must not be called from
// inside a policy tick.
func (m *Machine) State() MachineState {
	s := MachineState{
		AccessCount:       m.accessCount,
		NextTick:          m.nextTick,
		Phys:              m.phys.State(),
		BackgroundCycles:  m.BackgroundCycles,
		PromotionFailures: m.PromotionFailures,
		PressureDemotions: m.PressureDemotions,
		PromotionLog:      m.PromotionLog(),
		Events:            m.events.State(),
	}
	if m.pressRNG != nil {
		s.PressureRNGSteps = m.pressRNG.Steps()
	}
	if m.lifeRNG != nil {
		s.LifecycleRNGSteps = m.lifeRNG.Steps()
	}
	s.NextPID = m.nextPID
	s.Lifecycle = m.lifecycle
	s.Reaped = m.reaped
	for _, c := range m.cores {
		cs := CoreState{
			TLB:         c.TLB.State(),
			Walker:      c.Walker.State(),
			Cycles:      c.Cycles,
			Accesses:    c.Accesses,
			StallCycles: c.StallCycles,
		}
		if c.PCC2M != nil {
			st := c.PCC2M.State()
			cs.PCC2M = &st
		}
		if c.PCC1G != nil {
			st := c.PCC1G.State()
			cs.PCC1G = &st
		}
		if c.Victim != nil {
			st := c.Victim.State()
			cs.Victim = &st
		}
		s.Cores = append(s.Cores, cs)
	}
	for _, p := range m.procs {
		s.Procs = append(s.Procs, processState(p))
	}
	if m.numa != nil {
		for k, node := range m.numa.placement {
			s.NUMAPlacements = append(s.NUMAPlacements, NUMAPlacement{PID: k.pid, Base: k.base, Node: node})
		}
		sort.Slice(s.NUMAPlacements, func(i, j int) bool {
			a, b := s.NUMAPlacements[i], s.NUMAPlacements[j]
			if a.PID != b.PID {
				return a.PID < b.PID
			}
			return a.Base < b.Base
		})
		for pid, n := range m.numa.regionsPlaced {
			s.NUMARegions = append(s.NUMARegions, NUMARegionCount{PID: pid, Count: n})
		}
		sort.Slice(s.NUMARegions, func(i, j int) bool { return s.NUMARegions[i].PID < s.NUMARegions[j].PID })
	}
	if m.policy != nil {
		s.PolicyName = m.policy.Name()
		if sp, ok := m.policy.(StatefulPolicy); ok {
			s.PolicyState = sp.PolicyState()
		}
	}
	if sc := m.sched; sc != nil {
		ss := &SchedState{
			JobIdx:    sc.jobIdx,
			SliceLeft: sc.sliceLeft,
			Consumed:  make([]uint64, len(sc.live)),
			Done:      make([]bool, len(sc.live)),
		}
		for i, lj := range sc.live {
			ss.Consumed[i] = lj.accesses
			ss.Done[i] = lj.done
		}
		s.Sched = ss
	}
	return s
}

func processState(p *Process) ProcessState {
	ps := ProcessState{
		ID:            p.ID,
		Name:          p.Name,
		Churn:         p.churn,
		Ranges:        p.Ranges(),
		PMD:           append([]bool(nil), p.pmd...),
		PUD:           append([]bool(nil), p.pud...),
		BaseCPA:       p.BaseCPA,
		HomeNode:      p.HomeNode,
		MaxHugeBytes:  p.MaxHugeBytes,
		Huge2M:        hugeStates(p.huge2M),
		Huge1G:        hugeStates(p.huge1G),
		Promotions2M:  p.Promotions2M,
		Promotions1G:  p.Promotions1G,
		Demotions:     p.Demotions,
		Faults:        p.Faults,
		HugeFaults:    p.HugeFaults,
		RuntimeCycles: p.RuntimeCycles,
		Finished:      p.finished,
	}
	for _, v := range p.vmas {
		vs := VMAState{
			State:     make([]uint8, len(v.state)),
			Touched:   append([]bool(nil), v.touched...),
			LastUse2M: append([]uint64(nil), v.lastUse2M...),
			Accessed:  append([]bool(nil), v.accessed...),
		}
		for i, st := range v.state {
			vs.State[i] = uint8(st)
		}
		ps.VMAs = append(ps.VMAs, vs)
		ps.VMAPolicies = append(ps.VMAPolicies, v.memPolicy.clone())
	}
	return ps
}

func hugeStates(m map[mem.VirtAddr]uint64) []HugePageState {
	out := make([]HugePageState, 0, len(m))
	for base, at := range m {
		out = append(out, HugePageState{Base: base, At: at})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Base < out[j].Base })
	return out
}

// RestoreState installs a captured state into the machine. The machine must
// be freshly constructed from the same Config, with the same processes
// registered (same AddProcess calls in the same order) and the same policy
// installed — RestoreState validates all of that structurally and refuses
// mismatches. After installing, it clears every core's L0 filter (see the
// invalidate-on-restore rule above) and runs the full invariant Audit,
// returning its violations as an error, so a snapshot that decodes cleanly
// but describes an inconsistent machine can never start running.
//
// If the state includes a scheduler position (a run was in progress), it is
// staged; the next StartRun call with the same job list fast-forwards the
// streams and resumes mid-run.
func (m *Machine) RestoreState(s MachineState) error {
	if m.sched != nil {
		return fmt.Errorf("vmm: cannot restore into a machine with a run in progress")
	}
	if len(s.Cores) != len(m.cores) {
		return fmt.Errorf("vmm: state has %d cores, machine has %d", len(s.Cores), len(m.cores))
	}
	// Construction-registered processes form a prefix of the state's
	// process list and must match the machine 1:1; machine-spawned churn
	// processes form the suffix and are reconstructed from their serialized
	// geometry (the builder cannot re-register them).
	for _, p := range m.procs {
		if p.churn {
			return fmt.Errorf("vmm: restore requires a freshly constructed machine (found churn process %q)", p.Name)
		}
	}
	nStatic := len(s.Procs)
	for i, ps := range s.Procs {
		if ps.Churn {
			nStatic = i
			break
		}
	}
	for _, ps := range s.Procs[nStatic:] {
		if !ps.Churn {
			return fmt.Errorf("vmm: state process %q is construction-registered but follows a churn process", ps.Name)
		}
	}
	if nStatic != len(m.procs) {
		return fmt.Errorf("vmm: state has %d construction-registered processes, machine has %d", nStatic, len(m.procs))
	}
	wantPolicy := ""
	if m.policy != nil {
		wantPolicy = m.policy.Name()
	}
	if s.PolicyName != wantPolicy {
		return fmt.Errorf("vmm: state was taken under policy %q, machine runs %q", s.PolicyName, wantPolicy)
	}
	if len(s.NUMAPlacements) > 0 && m.numa == nil {
		return fmt.Errorf("vmm: state has NUMA placements but the machine's NUMA model is off")
	}

	for i, cs := range s.Cores {
		c := m.cores[i]
		if err := c.TLB.SetState(cs.TLB); err != nil {
			return fmt.Errorf("vmm: core %d: %w", i, err)
		}
		if err := c.Walker.SetState(cs.Walker); err != nil {
			return fmt.Errorf("vmm: core %d: %w", i, err)
		}
		if err := restoreOptional(i, "pcc2m", c.PCC2M, cs.PCC2M, (*pcc.PCC).SetState); err != nil {
			return err
		}
		if err := restoreOptional(i, "pcc1g", c.PCC1G, cs.PCC1G, (*pcc.PCC).SetState); err != nil {
			return err
		}
		if err := restoreOptional(i, "victim", c.Victim, cs.Victim, (*pcc.VictimTracker).SetState); err != nil {
			return err
		}
		c.Cycles = cs.Cycles
		c.Accesses = cs.Accesses
		c.StallCycles = cs.StallCycles
		c.clearL0()
	}

	for i, ps := range s.Procs[:nStatic] {
		if err := restoreProcess(m, m.procs[i], ps); err != nil {
			return err
		}
	}
	for _, ps := range s.Procs[nStatic:] {
		if len(ps.Ranges) == 0 {
			return fmt.Errorf("vmm: churn process %q has no serialized VMA geometry", ps.Name)
		}
		if err := validateRanges(ps.Ranges); err != nil {
			return fmt.Errorf("vmm: churn process %q: %w", ps.Name, err)
		}
		p := newProcess(ps.ID, ps.Name, ps.Ranges, ps.BaseCPA)
		p.churn = true
		if err := restoreProcess(m, p, ps); err != nil {
			return err
		}
		m.procs = append(m.procs, p)
	}

	if err := m.phys.SetState(s.Phys); err != nil {
		return fmt.Errorf("vmm: %w", err)
	}

	if m.numa != nil {
		m.numa.placement = make(map[demotePlacementKey]int, len(s.NUMAPlacements))
		for _, pl := range s.NUMAPlacements {
			m.numa.placement[demotePlacementKey{pid: pl.PID, base: pl.Base}] = pl.Node
		}
		m.numa.regionsPlaced = make(map[int]int, len(s.NUMARegions))
		for _, rc := range s.NUMARegions {
			m.numa.regionsPlaced[rc.PID] = rc.Count
		}
	}

	m.accessCount = s.AccessCount
	m.nextTick = s.NextTick
	m.BackgroundCycles = s.BackgroundCycles
	m.PromotionFailures = s.PromotionFailures
	m.PressureDemotions = s.PressureDemotions
	m.promotionLog = append([]PromotionEvent(nil), s.PromotionLog...)
	m.events = obs.RestoreEventLog(s.Events)
	if s.PressureRNGSteps > 0 {
		m.pressRNG = reprand.New(m.cfg.Seed*1_000_003 + 17)
		m.pressRNG.Skip(s.PressureRNGSteps)
	} else {
		m.pressRNG = nil
	}
	if s.LifecycleRNGSteps > 0 {
		m.lifeRNG = reprand.New(m.cfg.Seed*1_000_003 + 29)
		m.lifeRNG.Skip(s.LifecycleRNGSteps)
	} else {
		m.lifeRNG = nil
	}
	m.lifecycle = s.Lifecycle
	m.reaped = s.Reaped
	for _, p := range m.procs {
		if p.ID >= s.NextPID {
			return fmt.Errorf("vmm: next process ID %d is not above restored process ID %d", s.NextPID, p.ID)
		}
	}
	m.nextPID = s.NextPID

	if sp, ok := m.policy.(StatefulPolicy); ok {
		if s.PolicyState == nil {
			return fmt.Errorf("vmm: policy %q is stateful but the state carries no policy ledger", wantPolicy)
		}
		if err := sp.RestorePolicyState(m, s.PolicyState); err != nil {
			return fmt.Errorf("vmm: restoring policy %q: %w", wantPolicy, err)
		}
	} else if s.PolicyState != nil {
		return fmt.Errorf("vmm: state carries a policy ledger but policy %q is stateless", wantPolicy)
	}

	if sc := s.Sched; sc != nil {
		if len(sc.Consumed) != len(sc.Done) {
			return fmt.Errorf("vmm: scheduler state has %d consumed counts but %d done flags", len(sc.Consumed), len(sc.Done))
		}
		if sc.JobIdx < 0 || sc.JobIdx >= len(sc.Consumed) {
			return fmt.Errorf("vmm: scheduler state job index %d out of range [0,%d)", sc.JobIdx, len(sc.Consumed))
		}
		if sc.SliceLeft <= 0 || sc.SliceLeft > jobSlice {
			return fmt.Errorf("vmm: scheduler state slice remainder %d out of range (0,%d]", sc.SliceLeft, jobSlice)
		}
		cp := *sc
		cp.Consumed = append([]uint64(nil), sc.Consumed...)
		cp.Done = append([]bool(nil), sc.Done...)
		m.pendingSched = &cp
	} else {
		m.pendingSched = nil
	}

	if bad := m.Audit(); len(bad) > 0 {
		return fmt.Errorf("vmm: restored state fails audit (%d violations): %v", len(bad), bad)
	}
	return nil
}

// restoreOptional restores one optional per-core structure, enforcing that
// presence in the state matches presence in the configuration.
func restoreOptional[T any, S any](core int, name string, dst *T, st *S, set func(*T, S) error) error {
	switch {
	case dst == nil && st == nil:
		return nil
	case dst == nil:
		return fmt.Errorf("vmm: core %d: state has %s but the machine is configured without it", core, name)
	case st == nil:
		return fmt.Errorf("vmm: core %d: machine has %s but the state lacks it", core, name)
	}
	if err := set(dst, *st); err != nil {
		return fmt.Errorf("vmm: core %d %s: %w", core, name, err)
	}
	return nil
}

func restoreProcess(m *Machine, p *Process, ps ProcessState) error {
	if ps.ID != p.ID || ps.Name != p.Name {
		return fmt.Errorf("vmm: state process %d is %d/%q, machine has %d/%q", ps.ID, ps.ID, ps.Name, p.ID, p.Name)
	}
	if len(ps.VMAs) != len(p.vmas) {
		return fmt.Errorf("vmm: proc %s: state has %d VMAs, machine has %d", p.Name, len(ps.VMAs), len(p.vmas))
	}
	if len(ps.Ranges) != len(p.vmas) {
		return fmt.Errorf("vmm: proc %s: state has %d VMA ranges, machine has %d", p.Name, len(ps.Ranges), len(p.vmas))
	}
	for i, r := range ps.Ranges {
		if p.vmas[i].r != r {
			return fmt.Errorf("vmm: proc %s VMA %d: state range %#x-%#x, machine %#x-%#x",
				p.Name, i, uint64(r.Start), uint64(r.End), uint64(p.vmas[i].r.Start), uint64(p.vmas[i].r.End))
		}
	}
	if len(ps.VMAPolicies) != len(p.vmas) {
		return fmt.Errorf("vmm: proc %s: state has %d VMA policies, machine has %d VMAs", p.Name, len(ps.VMAPolicies), len(p.vmas))
	}
	for i, pol := range ps.VMAPolicies {
		if err := pol.Validate(m.cfg.NUMA.Nodes); err != nil {
			return fmt.Errorf("vmm: proc %s VMA %d: %w", p.Name, i, err)
		}
	}
	for vi, vs := range ps.VMAs {
		v := p.vmas[vi]
		if len(vs.State) != len(v.state) || len(vs.Touched) != len(v.touched) ||
			len(vs.LastUse2M) != len(v.lastUse2M) || len(vs.Accessed) != len(v.accessed) {
			return fmt.Errorf("vmm: proc %s VMA %d: state geometry %d/%d/%d/%d, machine %d/%d/%d/%d",
				p.Name, vi, len(vs.State), len(vs.Touched), len(vs.LastUse2M), len(vs.Accessed),
				len(v.state), len(v.touched), len(v.lastUse2M), len(v.accessed))
		}
		for j, st := range vs.State {
			if st > uint8(state1G) {
				return fmt.Errorf("vmm: proc %s VMA %d: page %d has unknown state %d", p.Name, vi, j, st)
			}
		}
	}
	if len(ps.PMD) != len(p.pmd) || len(ps.PUD) != len(p.pud) {
		return fmt.Errorf("vmm: proc %s: state has %d/%d region accessed bits, machine %d/%d",
			p.Name, len(ps.PMD), len(ps.PUD), len(p.pmd), len(p.pud))
	}
	copy(p.pmd, ps.PMD)
	copy(p.pud, ps.PUD)
	for vi, vs := range ps.VMAs {
		v := p.vmas[vi]
		for j, st := range vs.State {
			v.state[j] = pageState(st)
		}
		copy(v.touched, vs.Touched)
		copy(v.lastUse2M, vs.LastUse2M)
		copy(v.accessed, vs.Accessed)
		// The NUMA ledger is replaced wholesale after the processes, so
		// drop any node memo this machine filled before the restore.
		for i := range v.node2M {
			v.node2M[i] = 0
		}
		v.memPolicy = ps.VMAPolicies[vi].clone()
	}
	p.BaseCPA = ps.BaseCPA
	p.HomeNode = ps.HomeNode
	p.MaxHugeBytes = ps.MaxHugeBytes
	p.huge2M = make(map[mem.VirtAddr]uint64, len(ps.Huge2M))
	for _, h := range ps.Huge2M {
		p.huge2M[h.Base] = h.At
	}
	p.huge1G = make(map[mem.VirtAddr]uint64, len(ps.Huge1G))
	for _, h := range ps.Huge1G {
		p.huge1G[h.Base] = h.At
	}
	p.Promotions2M = ps.Promotions2M
	p.Promotions1G = ps.Promotions1G
	p.Demotions = ps.Demotions
	p.Faults = ps.Faults
	p.HugeFaults = ps.HugeFaults
	p.RuntimeCycles = ps.RuntimeCycles
	p.finished = ps.Finished
	return nil
}
