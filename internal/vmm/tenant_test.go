package vmm

import (
	"testing"

	"pccsim/internal/mem"
)

// TestAddTenantValidation walks the mbind/runc-style validation matrix: every
// malformed TenantConfig must be rejected up front, before any machine state
// is touched.
func TestAddTenantValidation(t *testing.T) {
	ranges := testVMA(2)
	cases := []struct {
		name string
		cfg  func() Config
		tc   TenantConfig
	}{
		{"empty name", testConfig, TenantConfig{Ranges: ranges}},
		{"no ranges", testConfig, TenantConfig{Name: "t"}},
		{"unaligned range", testConfig, TenantConfig{Name: "t",
			Ranges: []mem.Range{{Start: 1, End: 1 << 21}}}},
		{"inverted range", testConfig, TenantConfig{Name: "t",
			Ranges: []mem.Range{{Start: 1 << 21, End: 1 << 20}}}},
		// The modelled 4-level page table reaches 2^48 bytes.
		{"range above 2^48", testConfig, TenantConfig{Name: "t",
			Ranges: []mem.Range{{Start: 1<<48 + 1<<21, End: 1<<48 + 1<<22}}}},
		{"range crossing 2^48", testConfig, TenantConfig{Name: "t",
			Ranges: []mem.Range{{Start: 1<<48 - 1<<21, End: 1<<48 + 1<<12}}}},
		{"range at the top of the 64-bit space", testConfig, TenantConfig{Name: "t",
			Ranges: []mem.Range{{Start: 0xffffffffffe00000, End: 0xfffffffffffff000}}}},
		{"overlapping ranges", testConfig, TenantConfig{Name: "t",
			Ranges: []mem.Range{{Start: 1<<30 + 2<<20, End: 1<<30 + 6<<20}, {Start: 1 << 30, End: 1<<30 + 4<<20}}}},
		{"share above one", testConfig, TenantConfig{Name: "t", Ranges: ranges,
			HugeShare: 1.5}},
		{"negative share", testConfig, TenantConfig{Name: "t", Ranges: ranges,
			HugeShare: -0.1}},
		{"share and absolute cap", func() Config {
			cfg := testConfig()
			cfg.MaxHugeBytesTotal = 8 << 20
			return cfg
		}, TenantConfig{Name: "t", Ranges: ranges, HugeShare: 0.5, MaxHugeBytes: 2 << 20}},
		{"share without total budget", testConfig, TenantConfig{Name: "t",
			Ranges: ranges, HugeShare: 0.5}},
		{"share rounds to zero", func() Config {
			cfg := testConfig()
			cfg.MaxHugeBytesTotal = 8 << 20
			return cfg
		}, TenantConfig{Name: "t", Ranges: ranges, HugeShare: 0.1}}, // 0.8MB < 2MB
		{"home node without NUMA", testConfig, TenantConfig{Name: "t",
			Ranges: ranges, HomeNode: 1}},
		{"home node out of range", func() Config { return numaConfig(NUMABind) },
			TenantConfig{Name: "t", Ranges: ranges, HomeNode: 2}},
		{"mem policy without NUMA", testConfig, TenantConfig{Name: "t",
			Ranges: ranges, MemPolicy: VMAMemPolicy{Mode: MemPolicyBind, Nodes: []int{0}}}},
		{"default mode with mask", func() Config { return numaConfig(NUMABind) },
			TenantConfig{Name: "t", Ranges: ranges,
				MemPolicy: VMAMemPolicy{Mode: MemPolicyDefault, Nodes: []int{0}}}},
		{"bind without mask", func() Config { return numaConfig(NUMABind) },
			TenantConfig{Name: "t", Ranges: ranges,
				MemPolicy: VMAMemPolicy{Mode: MemPolicyBind}}},
		{"preferred multi-node", func() Config { return numaConfig(NUMABind) },
			TenantConfig{Name: "t", Ranges: ranges,
				MemPolicy: VMAMemPolicy{Mode: MemPolicyPreferred, Nodes: []int{0, 1}}}},
		{"node outside machine", func() Config { return numaConfig(NUMABind) },
			TenantConfig{Name: "t", Ranges: ranges,
				MemPolicy: VMAMemPolicy{Mode: MemPolicyInterleave, Nodes: []int{0, 2}}}},
		{"duplicate node", func() Config { return numaConfig(NUMABind) },
			TenantConfig{Name: "t", Ranges: ranges,
				MemPolicy: VMAMemPolicy{Mode: MemPolicyInterleave, Nodes: []int{1, 1}}}},
		{"unknown mode", func() Config { return numaConfig(NUMABind) },
			TenantConfig{Name: "t", Ranges: ranges,
				MemPolicy: VMAMemPolicy{Mode: MemPolicyMode(42), Nodes: []int{0}}}},
	}
	for _, c := range cases {
		m := NewMachine(c.cfg(), nil)
		if _, err := m.AddTenant(c.tc); err == nil {
			t.Errorf("%s: AddTenant accepted invalid config", c.name)
		}
		if len(m.Procs()) != 0 {
			t.Errorf("%s: rejected tenant leaked a process", c.name)
		}
	}
}

// TestAddTenantShareQuota: a HugeShare resolves against MaxHugeBytesTotal,
// rounds down to whole 2MB pages, and is enforced in the promotion path as
// the typed budget-exhausted error.
func TestAddTenantShareQuota(t *testing.T) {
	cfg := testConfig()
	cfg.MaxHugeBytesTotal = 10 << 20 // 0.5 share = 5MB, rounds down to 4MB
	m := NewMachine(cfg, nil)
	p, err := m.AddTenant(TenantConfig{Name: "t", Ranges: testVMA(3), BaseCPA: 10, HugeShare: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if p.MaxHugeBytes != 4<<20 {
		t.Fatalf("quota = %d, want %d (5MB rounded down to 2MB pages)", p.MaxHugeBytes, 4<<20)
	}
	m.Run(&Job{Proc: p, Stream: seqStream(p.Ranges()[0], 1)})
	base := p.Ranges()[0].Start
	for i := 0; i < 2; i++ {
		if err := m.Promote2M(p, base+mem.VirtAddr(i)<<21); err != nil {
			t.Fatalf("promotion %d within quota: %v", i, err)
		}
	}
	err = m.Promote2M(p, base+2<<21)
	if !IsBudgetExhausted(err) {
		t.Fatalf("promotion beyond quota = %v, want budget-exhausted", err)
	}
}

// TestAddTenantAbsoluteCap: MaxHugeBytes caps the tenant directly, with no
// machine-wide budget configured.
func TestAddTenantAbsoluteCap(t *testing.T) {
	m := NewMachine(testConfig(), nil)
	p, err := m.AddTenant(TenantConfig{Name: "t", Ranges: testVMA(2), BaseCPA: 10,
		MaxHugeBytes: 2 << 20})
	if err != nil {
		t.Fatal(err)
	}
	m.Run(&Job{Proc: p, Stream: seqStream(p.Ranges()[0], 1)})
	base := p.Ranges()[0].Start
	if err := m.Promote2M(p, base); err != nil {
		t.Fatal(err)
	}
	if err := m.Promote2M(p, base+1<<21); !IsBudgetExhausted(err) {
		t.Fatalf("promotion beyond absolute cap = %v, want budget-exhausted", err)
	}
}

// TestTenantMemPolicyPlacement: per-VMA policies override the machine's
// placement (here NUMABind to the home node) exactly as mbind overrides the
// task policy.
func TestTenantMemPolicyPlacement(t *testing.T) {
	place := func(pol VMAMemPolicy) (float64, *Machine, *Process) {
		m := NewMachine(numaConfig(NUMABind), nil)
		p, err := m.AddTenant(TenantConfig{Name: "t", Ranges: testVMA(4), BaseCPA: 10,
			MemPolicy: pol})
		if err != nil {
			t.Fatal(err)
		}
		m.Run(&Job{Proc: p, Stream: seqStream(p.Ranges()[0], 1)})
		return m.RemoteShare(p), m, p
	}
	if got, _, _ := place(VMAMemPolicy{Mode: MemPolicyBind, Nodes: []int{1}}); got != 1 {
		t.Errorf("bind to remote node: remote share = %f, want 1", got)
	}
	if got, _, _ := place(VMAMemPolicy{Mode: MemPolicyInterleave, Nodes: []int{0, 1}}); got != 0.5 {
		t.Errorf("interleave over both nodes: remote share = %f, want 0.5", got)
	}
	// Preferred home node with default LocalShare 1.0: everything fits local.
	if got, _, _ := place(VMAMemPolicy{Mode: MemPolicyPreferred, Nodes: []int{0}}); got != 0 {
		t.Errorf("preferred home node: remote share = %f, want 0", got)
	}
}
