package vmm

import (
	"errors"
	"math"
	"testing"

	"pccsim/internal/mem"
	"pccsim/internal/pcc"
	"pccsim/internal/physmem"
	"pccsim/internal/tlb"
	"pccsim/internal/trace"
)

// newMachineErr builds a machine from cfg and returns what NewMachine
// panicked with, or nil.
func newMachineErr(cfg Config) (v any) {
	defer func() { v = recover() }()
	NewMachine(cfg, nil)
	return nil
}

// TestValidateNamesEachField: every refused field yields a *ConfigError
// naming it, and NewMachine panics with that same error.
func TestValidateNamesEachField(t *testing.T) {
	numa := func(c *Config) { c.NUMA = DefaultNUMAConfig() }
	nan := math.NaN()
	for _, tc := range []struct {
		field string
		set   func(*Config)
	}{
		{"Cores", func(c *Config) { c.Cores = 0 }},
		{"Cores", func(c *Config) { c.Cores = MaxCores + 1 }},
		{"TLB.L1D4K", func(c *Config) { c.TLB.L1D4K.Ways = 3 }},
		{"TLB.L1D2M", func(c *Config) { c.TLB.L1D2M.Entries = 0 }},
		{"TLB.L1D1G", func(c *Config) { c.TLB.L1D1G.Ways = -4 }},
		{"TLB.L2", func(c *Config) { c.TLB.L2.Entries = 2 * tlb.MaxEntries }},
		{"PCC2M", func(c *Config) { c.PCC2M.Entries = 0 }},
		{"PCC2M", func(c *Config) { c.PCC2M.Entries = pcc.MaxEntries + 1 }},
		{"PCC2M", func(c *Config) { c.PCC2M.RegionSize = mem.Page1G }},
		{"PCC2M", func(c *Config) { c.PCC2M.Replacement = 9 }},
		{"Phys", func(c *Config) { c.Phys.TotalBytes = 0 }},
		{"Phys", func(c *Config) { c.Phys.TotalBytes = 3 << 20 }},
		{"Phys", func(c *Config) { c.Phys.TotalBytes = physmem.MaxTotalBytes + 2<<20 }},
		{"Phys", func(c *Config) { c.Phys.MovableFillRatio = nan }},
		{"FragFrac", func(c *Config) { c.FragFrac = 1.5 }},
		{"FragFrac", func(c *Config) { c.FragFrac = nan }},
		{"PromotionInterval", func(c *Config) { c.PromotionInterval = 0 }},
		{"NUMA.Nodes", func(c *Config) { c.NUMA.Nodes = -1 }},
		{"NUMA.Nodes", func(c *Config) { c.NUMA.Nodes = MaxNUMANodes + 1 }},
		{"NUMA.RemotePenalty", func(c *Config) { numa(c); c.NUMA.RemotePenalty = math.Inf(1) }},
		{"NUMA.Policy", func(c *Config) { numa(c); c.NUMA.Policy = 7 }},
		{"NUMA.LocalShare", func(c *Config) { numa(c); c.NUMA.LocalShare = 0 }},
		{"Pressure.ChurnAllocFrames", func(c *Config) { c.Pressure.ChurnAllocFrames = -1 }},
		{"Pressure.ChurnFreeFrames", func(c *Config) { c.Pressure.ChurnFreeFrames = -1 }},
		{"Pressure.ChurnPinnedFrac", func(c *Config) { c.Pressure.ChurnPinnedFrac = 2 }},
		{"Pressure.CompactBudgetFrames", func(c *Config) { c.Pressure.CompactBudgetFrames = -1 }},
		{"Pressure.DemoteWatermarkBlocks", func(c *Config) { c.Pressure.DemoteWatermarkBlocks = -1 }},
		{"Pressure.MaxDemotionsPerTick", func(c *Config) { c.Pressure.MaxDemotionsPerTick = -1 }},
		{"Lifecycle.MaxProcs", func(c *Config) { c.Lifecycle.MaxProcs = -1 }},
		{"Lifecycle.SpawnProb", func(c *Config) { c.Lifecycle.SpawnProb = nan }},
		{"Lifecycle.ExecProb", func(c *Config) { c.Lifecycle.ExecProb = 1.01 }},
		{"Lifecycle.ExitProb", func(c *Config) { c.Lifecycle.ExitProb = -1 }},
		{"Lifecycle.VMABytes", func(c *Config) { c.Lifecycle.VMABytes = 2 << 30 }},
		{"Lifecycle.TouchFrac", func(c *Config) { c.Lifecycle.TouchFrac = 1.5 }},
		{"Lifecycle.HugeRegions", func(c *Config) { c.Lifecycle.HugeRegions = -1 }},
		{"Shards", func(c *Config) { c.Shards = -1 }},
		{"Shards", func(c *Config) { c.Shards = MaxCores + 1 }},
		{"EventLogSize", func(c *Config) { c.EventLogSize = MaxEventLogSize + 1 }},
	} {
		cfg := DefaultConfig()
		tc.set(&cfg)
		err := cfg.Validate()
		var ce *ConfigError
		if !errors.As(err, &ce) || ce.Field != tc.field {
			t.Errorf("%s: Validate = %v, want a *ConfigError naming it", tc.field, err)
			continue
		}
		var pe *ConfigError
		if perr, ok := newMachineErr(cfg).(error); !ok || !errors.As(perr, &pe) || *pe != *ce {
			t.Errorf("%s: NewMachine panicked with %v, want %v", tc.field, perr, err)
		}
	}
}

// TestValidateAcceptsDocumentedConfigs: the default machine and the
// documented model configurations validate, including the zero values
// documented as defaults.
func TestValidateAcceptsDocumentedConfigs(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NUMA = DefaultNUMAConfig()
	cfg.Lifecycle = LifecycleConfig{Enable: true, SpawnProb: 1}
	cfg.Pressure = PressureConfig{Enable: true, ChurnAllocFrames: 64, DemoteWatermarkBlocks: 1}
	cfg.EventLogSize = -1
	for _, c := range []Config{DefaultConfig(), testConfig(), cfg} {
		if err := c.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v", c, err)
		}
	}
}

// FuzzConfigValidate: whatever Validate accepts must build, run a few
// thousand accesses and pass Audit; whatever it refuses must come back as a
// *ConfigError. Inputs are narrow integer types so an accepted machine stays
// small enough to build; out-of-range values (the bounds themselves) are
// covered through Validate alone in TestValidateNamesEachField. The seed
// corpus in testdata/fuzz/FuzzConfigValidate replays under plain go test.
func FuzzConfigValidate(f *testing.F) {
	f.Fuzz(func(t *testing.T, cores int8, l1Entries int16, l1Ways int8, pccEntries int16, physMiB uint16,
		frag float64, interval uint32, numaNodes, numaPolicy int8, localShare float64,
		churn, compact, watermark int16, pinned float64, shards int8,
		lifecycle bool, spawnProb float64) {
		cfg := DefaultConfig()
		cfg.Cores = int(cores)
		cfg.TLB.L1D4K = tlb.Config{Name: "L1D-4K", Entries: int(l1Entries), Ways: int(l1Ways)}
		cfg.PCC2M.Entries = int(pccEntries)
		cfg.Phys.TotalBytes = uint64(physMiB) << 20
		cfg.FragFrac = frag
		cfg.PromotionInterval = uint64(interval)
		cfg.NUMA = NUMAConfig{Nodes: int(numaNodes), RemotePenalty: 50, Policy: NUMAPolicy(numaPolicy), LocalShare: localShare}
		cfg.Pressure = PressureConfig{
			Enable: churn != 0 || compact != 0 || watermark != 0, ChurnAllocFrames: int(churn), ChurnFreeFrames: int(churn) / 2,
			ChurnPinnedFrac: pinned, CompactBudgetFrames: int(compact), DemoteWatermarkBlocks: int(watermark),
		}
		if lifecycle {
			cfg.Lifecycle = DefaultLifecycleConfig()
			cfg.Lifecycle.SpawnProb = spawnProb
		}
		cfg.Shards = int(shards)
		cfg.AuditEveryTick = true

		if err := cfg.Validate(); err != nil {
			var ce *ConfigError
			if !errors.As(err, &ce) {
				t.Fatalf("Validate returned %T %v, want *ConfigError", err, err)
			}
			return
		}
		m := NewMachine(cfg, &tickPromotePolicy{})
		p := m.AddProcess("fuzz", testVMA(8), 0)
		r := p.Ranges()[0]
		acc := make([]trace.Access, 4000)
		for i := range acc {
			off := mem.VirtAddr(uint64(i)*7919*uint64(mem.Page4K)) % (r.End - r.Start)
			acc[i] = trace.Access{Addr: r.Start + off, Write: i%3 == 0, Thread: i % cfg.Cores}
		}
		onCores := make([]int, cfg.Cores)
		for i := range onCores {
			onCores[i] = i
		}
		m.Run(&Job{Proc: p, Stream: trace.Slice(acc), Cores: onCores})
		if v := m.Audit(); len(v) > 0 {
			t.Fatalf("audit after run: %v", v)
		}
	})
}
