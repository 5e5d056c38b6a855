package ospolicy

import (
	"encoding/gob"
	"fmt"
	"sort"

	"pccsim/internal/mem"
	"pccsim/internal/reprand"
	"pccsim/internal/vmm"
)

// Checkpoint/restore state for the stateful policies. Each state type is a
// pure-data, gob-encodable mirror of the policy's cross-tick ledgers with
// every map flattened into a deterministically sorted slice (gob iterates Go
// maps in random order, which would make the encoded snapshot bytes — and
// therefore the golden-snapshot tests — non-deterministic). The concrete
// types are gob-registered here so they can travel through the `any`-typed
// PolicyState field of vmm.MachineState.
//
// Not serialized: PCCEngine.coreProc — the core-to-process binding is
// construction-time wiring (Bind calls) that the restore target re-runs, and
// it holds *vmm.Process pointers that only make sense in-process.

func init() {
	gob.Register(LinuxTHPState{})
	gob.Register(HawkEyeState{})
	gob.Register(PCCEngineState{})
}

// LinuxTHPState is LinuxTHP's serializable cross-tick state.
type LinuxTHPState struct {
	CompactionFaults int
	Deferred         bool
	ProcIdx          int
	Offset           uint64
	Ticks            uint64
	Promoted         uint64
}

// PolicyState implements vmm.StatefulPolicy.
func (l *LinuxTHP) PolicyState() any {
	return LinuxTHPState{
		CompactionFaults: l.compactionFaults,
		Deferred:         l.deferred,
		ProcIdx:          l.procIdx,
		Offset:           l.offset,
		Ticks:            l.ticks,
		Promoted:         l.promoted,
	}
}

// RestorePolicyState implements vmm.StatefulPolicy.
func (l *LinuxTHP) RestorePolicyState(_ *vmm.Machine, st any) error {
	s, ok := st.(LinuxTHPState)
	if !ok {
		return fmt.Errorf("ospolicy: Linux-THP cannot restore state of type %T", st)
	}
	l.compactionFaults = s.CompactionFaults
	l.deferred = s.Deferred
	l.procIdx = s.ProcIdx
	l.offset = s.Offset
	l.ticks = s.Ticks
	l.promoted = s.Promoted
	return nil
}

// HawkRegionState is one tracked region's coverage state. The owning process
// is carried by ID and re-resolved against the restore target's process
// table.
type HawkRegionState struct {
	PID      int
	Base     mem.VirtAddr
	Estimate float64
	Hits     int
	Samples  int
}

// HawkEyeState is HawkEye's serializable cross-tick state.
type HawkEyeState struct {
	RNGSteps uint64
	Regions  []HawkRegionState
	Ticks    uint64
	Promoted uint64
}

// PolicyState implements vmm.StatefulPolicy.
func (h *HawkEye) PolicyState() any {
	s := HawkEyeState{
		RNGSteps: h.rng.Steps(),
		Ticks:    h.ticks,
		Promoted: h.promoted,
	}
	for k, r := range h.regions {
		s.Regions = append(s.Regions, HawkRegionState{
			PID: k.pid, Base: k.base, Estimate: r.estimate, Hits: r.hits, Samples: r.samples,
		})
	}
	sort.Slice(s.Regions, func(i, j int) bool {
		a, b := s.Regions[i], s.Regions[j]
		if a.PID != b.PID {
			return a.PID < b.PID
		}
		return a.Base < b.Base
	})
	return s
}

// RestorePolicyState implements vmm.StatefulPolicy.
func (h *HawkEye) RestorePolicyState(m *vmm.Machine, st any) error {
	s, ok := st.(HawkEyeState)
	if !ok {
		return fmt.Errorf("ospolicy: HawkEye cannot restore state of type %T", st)
	}
	procs := map[int]*vmm.Process{}
	for _, p := range m.Procs() {
		procs[p.ID] = p
	}
	regions := make(map[regionKey]*hawkRegion, len(s.Regions))
	for _, rs := range s.Regions {
		p := procs[rs.PID]
		if p == nil {
			return fmt.Errorf("ospolicy: HawkEye state tracks process %d, which the machine lacks", rs.PID)
		}
		regions[regionKey{pid: rs.PID, base: rs.Base}] = &hawkRegion{
			proc: p, base: rs.Base, estimate: rs.Estimate, hits: rs.Hits, samples: rs.Samples,
		}
	}
	h.regions = regions
	h.rng = reprand.New(h.cfg.Seed)
	h.rng.Skip(s.RNGSteps)
	h.ticks = s.Ticks
	h.promoted = s.Promoted
	return nil
}

// IdleRegionState is one entry of the PCC engine's idle-region tracker
// (lastSample and coldTicks share one key set; see sampleIdle).
type IdleRegionState struct {
	PID        int
	Base       mem.VirtAddr
	LastSample uint64
	ColdTicks  int
}

// PCCEngineState is PCCEngine's serializable cross-tick state.
type PCCEngineState struct {
	Idle  []IdleRegionState
	Stats engineStats
}

// PolicyState implements vmm.StatefulPolicy.
func (e *PCCEngine) PolicyState() any {
	s := PCCEngineState{Stats: e.stats}
	for k, last := range e.lastSample {
		s.Idle = append(s.Idle, IdleRegionState{
			PID: k.pid, Base: k.base, LastSample: last, ColdTicks: e.coldTicks[k],
		})
	}
	sort.Slice(s.Idle, func(i, j int) bool {
		a, b := s.Idle[i], s.Idle[j]
		if a.PID != b.PID {
			return a.PID < b.PID
		}
		return a.Base < b.Base
	})
	return s
}

// RestorePolicyState implements vmm.StatefulPolicy.
func (e *PCCEngine) RestorePolicyState(_ *vmm.Machine, st any) error {
	s, ok := st.(PCCEngineState)
	if !ok {
		return fmt.Errorf("ospolicy: PCC engine cannot restore state of type %T", st)
	}
	e.lastSample = make(map[demoteKey]uint64, len(s.Idle))
	e.coldTicks = make(map[demoteKey]int, len(s.Idle))
	for _, r := range s.Idle {
		k := demoteKey{pid: r.PID, base: r.Base}
		e.lastSample[k] = r.LastSample
		e.coldTicks[k] = r.ColdTicks
	}
	e.stats = s.Stats
	return nil
}
