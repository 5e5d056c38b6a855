package vmm

import (
	"fmt"
	"math"

	"pccsim/internal/mem"
)

// NUMA modeling. The paper's methodology section binds each process and its
// memory to one node with numactl, because "memory access latency can
// differ when accessing local vs. remote NUMA nodes and Linux's default
// allocation policy can result in variable application runtimes for the
// same huge page configuration". This model reproduces that effect: pages
// are placed on a node at first touch according to the placement policy,
// and accesses to remote pages pay a latency penalty. The ext-numa
// experiment uses it to justify the bound configuration every other
// experiment runs with (the default: NUMA off = a single node).

// NUMAPolicy selects where a first-touched region's memory lands.
type NUMAPolicy int

const (
	// NUMABind places every page on the process's home node (the paper's
	// numactl --membind configuration).
	NUMABind NUMAPolicy = iota
	// NUMAInterleave round-robins 2MB regions across nodes (Linux's
	// interleave policy; half the accesses pay the remote penalty on a
	// 2-node machine).
	NUMAInterleave
	// NUMALocalFirst fills the home node until its capacity share is
	// exhausted, then spills remote — Linux's default first-touch-local
	// behaviour under memory pressure.
	NUMALocalFirst
)

func (p NUMAPolicy) String() string {
	switch p {
	case NUMABind:
		return "bind"
	case NUMAInterleave:
		return "interleave"
	case NUMALocalFirst:
		return "local-first"
	}
	return fmt.Sprintf("NUMAPolicy(%d)", int(p))
}

// NUMAConfig enables the multi-node memory model.
type NUMAConfig struct {
	// Nodes is the node count; 0 or 1 disables NUMA modeling.
	Nodes int
	// RemotePenalty is the extra cycles per access to a remote page
	// (~60ns on 2-socket Haswell ≈ 1.4x local; we charge the delta).
	RemotePenalty float64
	// Policy is the placement policy.
	Policy NUMAPolicy
	// LocalShare caps the home node's share of a process's regions under
	// NUMALocalFirst before spilling (models pressure; 1.0 = everything
	// fits locally). Must be in (0,1] when NUMA is on.
	LocalShare float64
}

// DefaultNUMAConfig returns a 2-node machine with a Haswell-like remote
// penalty, bound placement.
func DefaultNUMAConfig() NUMAConfig {
	return NUMAConfig{Nodes: 2, RemotePenalty: 50, Policy: NUMABind, LocalShare: 1.0}
}

// numaState tracks placement for one machine.
type numaState struct {
	cfg NUMAConfig
	// placement maps (proc, 2MB region base) -> node.
	placement map[demotePlacementKey]int
	// regionsPlaced counts per-process placements (drives interleave and
	// local-first decisions).
	regionsPlaced map[int]int
}

type demotePlacementKey struct {
	pid  int
	base mem.VirtAddr
}

func newNUMAState(cfg NUMAConfig) *numaState {
	if cfg.Nodes <= 1 {
		return nil
	}
	return &numaState{
		cfg:           cfg,
		placement:     map[demotePlacementKey]int{},
		regionsPlaced: map[int]int{},
	}
}

// place returns the node for the region containing a, assigning it on first
// touch: the VMA's memory policy decides if one is installed, otherwise the
// machine-wide placement policy applies.
func (n *numaState) place(p *Process, a mem.VirtAddr) int {
	k := demotePlacementKey{pid: p.ID, base: mem.PageBase(a, mem.Page2M)}
	if node, ok := n.placement[k]; ok {
		return node
	}
	idx := n.regionsPlaced[p.ID]
	n.regionsPlaced[p.ID] = idx + 1
	node := n.chooseNode(p, a, idx)
	n.placement[k] = node
	return node
}

// chooseNode is the first-touch placement decision for p's idx-th region.
// A non-default per-VMA memory policy (mbind semantics) overrides the
// machine-wide policy.
func (n *numaState) chooseNode(p *Process, a mem.VirtAddr, idx int) int {
	if v := p.vmaOf(a); v != nil && v.memPolicy.Mode != MemPolicyDefault {
		pol := v.memPolicy
		switch pol.Mode {
		case MemPolicyBind:
			return pol.Nodes[0]
		case MemPolicyInterleave:
			return pol.Nodes[idx%len(pol.Nodes)]
		case MemPolicyPreferred:
			// A hint, not a guarantee: the preferred node fills until the
			// LocalShare capacity cap, then regions spill like local-first.
			if idx < n.localCap(p) {
				return pol.Nodes[0]
			}
			return n.spill(pol.Nodes[0], idx)
		}
	}
	switch n.cfg.Policy {
	case NUMAInterleave:
		return idx % n.cfg.Nodes
	case NUMALocalFirst:
		// Home node until LocalShare of the process's regions is placed
		// there, then spill round-robin across the others.
		if idx < n.localCap(p) {
			return p.HomeNode
		}
		return n.spill(p.HomeNode, idx)
	}
	return p.HomeNode // NUMABind
}

// localCap is how many regions fit on the home/preferred node before
// local-first placement spills. The cap rounds UP from the real per-VMA 2MB
// slot counts: the old Footprint()/2MB integer division truncated partial
// regions, so a sub-2MB process had capacity zero and placed everything
// remotely even at LocalShare 1.0.
func (n *numaState) localCap(p *Process) int {
	return int(math.Ceil(n.cfg.LocalShare * float64(p.regions2M())))
}

// spill round-robins a region across every node but home.
func (n *numaState) spill(home, idx int) int {
	return (home + 1 + idx%(n.cfg.Nodes-1)) % n.cfg.Nodes
}

// forget erases every placement ledger entry for a dead PID; exit and exec
// teardown call it so RemoteShare and the interleave/local-first counters
// never read an exited process's placements (the leak Machine.Audit now
// flags).
func (n *numaState) forget(pid int) {
	if n == nil {
		return
	}
	for k := range n.placement {
		if k.pid == pid {
			delete(n.placement, k)
		}
	}
	delete(n.regionsPlaced, pid)
}

// node returns the node of the 2MB region holding a, which lies in p's VMA
// v: the region's memo when set, else the ledger's placement (made now on
// first touch), memoized for the next full step.
func (n *numaState) node(p *Process, v *vma, a mem.VirtAddr) int {
	s := v.slot2M(a)
	if nd := v.node2M[s]; nd != 0 {
		return int(nd - 1)
	}
	nd := n.place(p, a)
	v.node2M[s] = int32(nd + 1)
	return nd
}

// RemoteShare returns the fraction of p's placed regions on remote nodes
// (diagnostics for the ext-numa experiment).
func (m *Machine) RemoteShare(p *Process) float64 {
	if m.numa == nil {
		return 0
	}
	local, remote := 0, 0
	for k, node := range m.numa.placement {
		if k.pid != p.ID {
			continue
		}
		if node == p.HomeNode {
			local++
		} else {
			remote++
		}
	}
	if local+remote == 0 {
		return 0
	}
	return float64(remote) / float64(local+remote)
}
