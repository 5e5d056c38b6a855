package vmm

import (
	"errors"
	"fmt"

	"pccsim/internal/mem"
)

// Multi-tenant policy surface. A TenantConfig describes one hosted workload:
// its address space, its slice of the machine-wide huge page budget (either
// an absolute byte cap or a share of Config.MaxHugeBytesTotal), and an
// optional per-VMA NUMA memory policy with mbind-style semantics. Quotas are
// enforced where every huge mapping is created — overHugeBudget in the fault
// and promotion paths — surfacing as the typed PromoteBudgetExhausted error,
// so per-tenant accounting adds nothing to the per-access hot path.

// MemPolicyMode selects the per-VMA NUMA placement policy, mirroring the
// mbind(2) modes runc exposes per container.
type MemPolicyMode int

const (
	// MemPolicyDefault defers to the machine-wide NUMA policy.
	MemPolicyDefault MemPolicyMode = iota
	// MemPolicyBind places every region of the VMA on the first node of the
	// mask (MPOL_BIND: allocation is restricted to the mask; the model
	// deterministically fills the lowest node).
	MemPolicyBind
	// MemPolicyInterleave round-robins regions across the mask's nodes in
	// first-touch order (MPOL_INTERLEAVE).
	MemPolicyInterleave
	// MemPolicyPreferred fills the single preferred node until the
	// LocalShare capacity cap, then spills to the remaining machine nodes
	// (MPOL_PREFERRED: a hint, not a guarantee).
	MemPolicyPreferred
)

func (m MemPolicyMode) String() string {
	switch m {
	case MemPolicyDefault:
		return "default"
	case MemPolicyBind:
		return "bind"
	case MemPolicyInterleave:
		return "interleave"
	case MemPolicyPreferred:
		return "preferred"
	}
	return fmt.Sprintf("MemPolicyMode(%d)", int(m))
}

// VMAMemPolicy is one VMA's NUMA memory policy: a mode plus its node mask.
// The zero value is the default policy (machine-wide placement applies).
type VMAMemPolicy struct {
	Mode  MemPolicyMode
	Nodes []int
}

// Validate checks the policy against a machine with the given node count,
// with mbind(2)-style rules: default takes no mask, bind/interleave need a
// non-empty mask, preferred takes exactly one node, and every node must be a
// distinct valid node ID. Non-default modes require the NUMA model.
func (pol VMAMemPolicy) Validate(nodes int) error {
	switch pol.Mode {
	case MemPolicyDefault:
		if len(pol.Nodes) != 0 {
			return errors.New("vmm: default memory policy takes no node mask")
		}
		return nil
	case MemPolicyBind, MemPolicyInterleave, MemPolicyPreferred:
	default:
		return fmt.Errorf("vmm: unknown memory policy mode %d", int(pol.Mode))
	}
	if nodes <= 1 {
		return fmt.Errorf("vmm: %v memory policy requires the NUMA model (Config.NUMA.Nodes > 1)", pol.Mode)
	}
	if len(pol.Nodes) == 0 {
		return fmt.Errorf("vmm: %v memory policy requires a non-empty node mask", pol.Mode)
	}
	if pol.Mode == MemPolicyPreferred && len(pol.Nodes) != 1 {
		return errors.New("vmm: preferred memory policy takes exactly one node")
	}
	seen := make(map[int]bool, len(pol.Nodes))
	for _, n := range pol.Nodes {
		if n < 0 || n >= nodes {
			return fmt.Errorf("vmm: memory policy node %d outside [0,%d)", n, nodes)
		}
		if seen[n] {
			return fmt.Errorf("vmm: duplicate node %d in memory policy mask", n)
		}
		seen[n] = true
	}
	return nil
}

// clone deep-copies the policy so callers cannot alias the installed mask.
func (pol VMAMemPolicy) clone() VMAMemPolicy {
	return VMAMemPolicy{Mode: pol.Mode, Nodes: append([]int(nil), pol.Nodes...)}
}

// TenantConfig describes one tenant workload to register on the machine.
type TenantConfig struct {
	// Name identifies the tenant in reports and events.
	Name string
	// Ranges is the tenant's VMA layout (page-aligned, non-empty).
	Ranges []mem.Range
	// BaseCPA is the workload's base cycles-per-access (0 = config default).
	BaseCPA float64
	// HomeNode is the NUMA node the tenant's CPUs live on (must be 0 when
	// the NUMA model is off).
	HomeNode int
	// MaxHugeBytes is an absolute cap on the tenant's huge-backed bytes
	// (0 = unlimited). Mutually exclusive with HugeShare.
	MaxHugeBytes uint64
	// HugeShare resolves the tenant's cap as a share of the machine-wide
	// Config.MaxHugeBytesTotal budget, rounded down to whole 2MB pages.
	// 0 means "no share-based cap"; requires MaxHugeBytesTotal when set.
	HugeShare float64
	// MemPolicy is applied to every VMA of the tenant (per-VMA overrides go
	// through MBind afterwards).
	MemPolicy VMAMemPolicy
}

// AddTenant validates the tenant description and registers its address
// space. The returned process carries the resolved huge page quota and the
// installed per-VMA memory policies.
func (m *Machine) AddTenant(tc TenantConfig) (*Process, error) {
	if tc.Name == "" {
		return nil, errors.New("vmm: AddTenant: tenant name must be non-empty")
	}
	if len(tc.Ranges) == 0 {
		return nil, fmt.Errorf("vmm: AddTenant %s: at least one VMA range required", tc.Name)
	}
	if err := validateRanges(tc.Ranges); err != nil {
		return nil, fmt.Errorf("vmm: AddTenant %s: %w", tc.Name, err)
	}
	if tc.HugeShare < 0 || tc.HugeShare > 1 {
		return nil, fmt.Errorf("vmm: AddTenant %s: HugeShare %g outside [0,1]", tc.Name, tc.HugeShare)
	}
	if tc.HugeShare > 0 && tc.MaxHugeBytes > 0 {
		return nil, fmt.Errorf("vmm: AddTenant %s: MaxHugeBytes and HugeShare are mutually exclusive", tc.Name)
	}
	if tc.HugeShare > 0 && m.cfg.MaxHugeBytesTotal == 0 {
		return nil, fmt.Errorf("vmm: AddTenant %s: HugeShare requires Config.MaxHugeBytesTotal", tc.Name)
	}
	nodes := m.cfg.NUMA.Nodes
	if tc.HomeNode != 0 && (nodes <= 1 || tc.HomeNode < 0 || tc.HomeNode >= nodes) {
		return nil, fmt.Errorf("vmm: AddTenant %s: home node %d invalid for a %d-node machine", tc.Name, tc.HomeNode, nodes)
	}
	if err := tc.MemPolicy.Validate(nodes); err != nil {
		return nil, fmt.Errorf("vmm: AddTenant %s: %w", tc.Name, err)
	}
	quota := tc.MaxHugeBytes
	if tc.HugeShare > 0 {
		quota = uint64(tc.HugeShare * float64(m.cfg.MaxHugeBytesTotal))
		quota -= quota % uint64(mem.Page2M)
		if quota == 0 {
			return nil, fmt.Errorf("vmm: AddTenant %s: HugeShare %g of the %d-byte total is smaller than one 2MB page",
				tc.Name, tc.HugeShare, m.cfg.MaxHugeBytesTotal)
		}
	}
	p := m.AddProcess(tc.Name, tc.Ranges, tc.BaseCPA)
	p.HomeNode = tc.HomeNode
	p.MaxHugeBytes = quota
	if tc.MemPolicy.Mode != MemPolicyDefault {
		for _, v := range p.vmas {
			v.memPolicy = tc.MemPolicy.clone()
		}
	}
	return p, nil
}
