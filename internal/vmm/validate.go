package vmm

import (
	"fmt"
	"math"

	"pccsim/internal/mem"
	"pccsim/internal/obs"
)

// Upper bounds on the machine sizes Validate accepts. Together with the
// per-structure bounds (tlb.MaxEntries, pcc.MaxEntries,
// physmem.MaxTotalBytes) they keep the largest accepted machine to a few
// hundred MiB of host memory.
const (
	// MaxCores bounds Cores and Shards.
	MaxCores = 64
	// MaxNUMANodes bounds NUMA.Nodes.
	MaxNUMANodes = 8
	// MaxEventLogSize bounds EventLogSize's ring, which is allocated up front.
	MaxEventLogSize = 256 * obs.DefaultEventLogSize
)

// ConfigError explains why Validate refused a Config: Field is the
// offending field's path in Config ("Cores", "PCC2M",
// "Pressure.ChurnAllocFrames"), Reason the constraint it breaks. Callers
// branch on Field (via errors.As), never on the Reason text.
type ConfigError struct {
	Field  string
	Reason string
}

func (e *ConfigError) Error() string { return "vmm: invalid config " + e.Field + ": " + e.Reason }

// Validate reports the first field NewMachine cannot build as given — a
// value some constructor would panic on or quietly reinterpret — as a
// *ConfigError, or nil. Zero values documented as defaults
// (Pressure.MaxDemotionsPerTick, the Lifecycle sizes) are accepted.
func (c Config) Validate() error {
	numa := c.NUMA.Nodes > 1 // the remaining NUMA fields matter only then
	checks := []struct {
		field string
		err   error
	}{
		{"Cores", count(c.Cores, 1, MaxCores)},
		{"TLB.L1D4K", c.TLB.L1D4K.Validate()},
		{"TLB.L1D2M", c.TLB.L1D2M.Validate()},
		{"TLB.L1D1G", c.TLB.L1D1G.Validate()},
		{"TLB.L2", c.TLB.L2.Validate()},
		{"PCC2M", c.PCC2M.Validate()},
		{"PCC2M", regionSize(c.PCC2M.RegionSize, mem.Page2M)},
		{"Phys", c.Phys.Validate()},
		{"FragFrac", count(c.FragFrac, 0, 1)},
		{"PromotionInterval", atLeast(c.PromotionInterval, 1)},
		{"NUMA.Nodes", count(c.NUMA.Nodes, 0, MaxNUMANodes)},
		{"NUMA.RemotePenalty", when(numa, count(c.NUMA.RemotePenalty, 0, 1e6))},
		{"NUMA.Policy", when(numa, count(c.NUMA.Policy, NUMABind, NUMALocalFirst))},
		{"NUMA.LocalShare", when(numa, count(c.NUMA.LocalShare, math.SmallestNonzeroFloat64, 1))},
		{"Pressure.ChurnAllocFrames", atLeast(c.Pressure.ChurnAllocFrames, 0)},
		{"Pressure.ChurnFreeFrames", atLeast(c.Pressure.ChurnFreeFrames, 0)},
		{"Pressure.ChurnPinnedFrac", count(c.Pressure.ChurnPinnedFrac, 0, 1)},
		{"Pressure.CompactBudgetFrames", atLeast(c.Pressure.CompactBudgetFrames, 0)},
		{"Pressure.DemoteWatermarkBlocks", atLeast(c.Pressure.DemoteWatermarkBlocks, 0)},
		{"Pressure.MaxDemotionsPerTick", atLeast(c.Pressure.MaxDemotionsPerTick, 0)},
		{"Lifecycle.MaxProcs", atLeast(c.Lifecycle.MaxProcs, 0)},
		{"Lifecycle.SpawnProb", count(c.Lifecycle.SpawnProb, 0, 1)},
		{"Lifecycle.ExecProb", count(c.Lifecycle.ExecProb, 0, 1)},
		{"Lifecycle.ExitProb", count(c.Lifecycle.ExitProb, 0, 1)},
		{"Lifecycle.VMABytes", count(c.Lifecycle.VMABytes, 0, uint64(churnSlotStride))},
		{"Lifecycle.TouchFrac", count(c.Lifecycle.TouchFrac, 0, 1)},
		{"Lifecycle.HugeRegions", atLeast(c.Lifecycle.HugeRegions, 0)},
		{"Shards", count(c.Shards, 0, MaxCores)},
		{"EventLogSize", count(max(c.EventLogSize, 0), 0, MaxEventLogSize)},
	}
	for _, ch := range checks {
		if ch.err != nil {
			return &ConfigError{Field: ch.field, Reason: ch.err.Error()}
		}
	}
	return nil
}

// count refuses v outside [lo, hi]; NaN is outside every range, so float
// fields use it for fractions too.
func count[T int | uint64 | float64 | NUMAPolicy](v, lo, hi T) error {
	if !(v >= lo && v <= hi) {
		return fmt.Errorf("%v, want %v..%v", v, lo, hi)
	}
	return nil
}

func regionSize(got, want mem.PageSize) error {
	if got != want {
		return fmt.Errorf("region size %v, want %v", got, want)
	}
	return nil
}

// atLeast refuses v below lo.
func atLeast[T int | uint64](v, lo T) error {
	if v < lo {
		return fmt.Errorf("%v, want >= %v", v, lo)
	}
	return nil
}

// when keeps err only for a field that is in use.
func when(inUse bool, err error) error {
	if inUse {
		return err
	}
	return nil
}
