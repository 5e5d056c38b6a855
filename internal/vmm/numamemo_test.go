package vmm

import (
	"math"
	"testing"

	"pccsim/internal/mem"
	"pccsim/internal/trace"
)

// The full-translation step charges the remote-NUMA penalty from a per-VMA
// memo of each 2MB region's node (vma.node2M) instead of the first-touch
// ledger (numaState.placement). These tests pin the two together: every
// access's charge must be exactly what the ledger's placement implies, under
// every placement policy and across the events that rebuild or replace
// VMAs and ledgers — exec, exit and snapshot restore.

// memoPenalty is the remote penalty of the charged machine in a numaTwin.
const memoPenalty = 50

// numaTwin holds two machines built by the same code from the same config,
// except that free has RemotePenalty 0. First-touch placement never reads
// the penalty, so both machines take identical paths, and after each access
// the difference of their cycle counts is exactly that access's NUMA charge.
type numaTwin struct {
	charged, free *Machine
}

func newNUMATwin(cfg Config) numaTwin {
	cfg.NUMA.RemotePenalty = memoPenalty
	free := cfg
	free.NUMA.RemotePenalty = 0
	return numaTwin{charged: NewMachine(cfg, nil), free: NewMachine(free, nil)}
}

// both applies fn to each machine of the twin.
func (tw numaTwin) both(fn func(m *Machine)) {
	fn(tw.charged)
	fn(tw.free)
}

func cycles(m *Machine) float64 {
	var c float64
	for _, core := range m.Cores() {
		c += core.Cycles
	}
	return c
}

// run executes acc as one job of the process at index pi on both machines,
// one access at a time, and requires each access's charge to match the
// charged machine's ledger: the penalty exactly when the access's region is
// placed off the process's home node. Afterwards the two machines' ledgers
// must agree and both must pass Audit, which checks every filled memo.
func (tw numaTwin) run(t *testing.T, pi int, acc []trace.Access) {
	t.Helper()
	pc, pf := tw.charged.Procs()[pi], tw.free.Procs()[pi]
	if err := tw.charged.StartRun(&Job{Proc: pc, Stream: trace.Slice(acc)}); err != nil {
		t.Fatal(err)
	}
	if err := tw.free.StartRun(&Job{Proc: pf, Stream: trace.Slice(acc)}); err != nil {
		t.Fatal(err)
	}
	for i, a := range acc {
		c0, f0 := cycles(tw.charged), cycles(tw.free)
		tw.both(func(m *Machine) { m.RunUntil(m.accessCount + 1) })
		got := (cycles(tw.charged) - c0) - (cycles(tw.free) - f0)
		key := demotePlacementKey{pid: pc.ID, base: mem.PageBase(a.Addr, mem.Page2M)}
		node, ok := tw.charged.numa.placement[key]
		if !ok {
			t.Fatalf("access %d (%#x): region not in the ledger after its access", i, uint64(a.Addr))
		}
		want := 0.0
		if node != pc.HomeNode {
			want = memoPenalty
		}
		if math.Abs(got-want) > 1e-6 {
			t.Fatalf("access %d (%#x): NUMA charge %g, ledger places the region on node %d (home %d) so want %g",
				i, uint64(a.Addr), got, node, pc.HomeNode, want)
		}
	}
	tw.both(func(m *Machine) { m.FinishRun() })
	for k, node := range tw.charged.numa.placement {
		if tw.free.numa.placement[k] != node {
			t.Fatalf("twin ledgers diverge at pid %d base %#x", k.pid, uint64(k.base))
		}
	}
	for _, m := range []*Machine{tw.charged, tw.free} {
		if bad := m.Audit(); len(bad) > 0 {
			t.Fatalf("audit: %v", bad)
		}
	}
}

// regionSweep touches every 4KB page of the given 2MB regions of r, region
// by region in the order listed, then revisits one page per region in that
// order — so the sweep places regions in a chosen order and the revisits
// take full steps through already-memoized regions.
func regionSweep(r mem.Range, order []int) []trace.Access {
	var acc []trace.Access
	for _, i := range order {
		base := r.Start + mem.VirtAddr(i)<<21
		for a := base; a < base+mem.VirtAddr(mem.Page2M) && a < r.End; a += mem.VirtAddr(mem.Page4K) {
			acc = append(acc, trace.Access{Addr: a})
		}
	}
	for _, i := range order {
		acc = append(acc, trace.Access{Addr: r.Start + mem.VirtAddr(i)<<21 + 0x3000})
	}
	return acc
}

func TestNUMAChargeMatchesLedger(t *testing.T) {
	fwd := []int{0, 1, 2, 3, 4, 5}
	for _, tc := range []struct {
		name  string
		pol   NUMAPolicy
		share float64
		home  int
		mbind bool
	}{
		{name: "bind", pol: NUMABind, home: 1},
		{name: "interleave", pol: NUMAInterleave},
		{name: "local-first", pol: NUMALocalFirst, share: 0.5},
		{name: "mbind", pol: NUMABind, mbind: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := numaConfig(tc.pol)
			if tc.share > 0 {
				cfg.NUMA.LocalShare = tc.share
			}
			tw := newNUMATwin(cfg)
			second := mem.Range{Start: 256 << 20, End: 256<<20 + 3<<21}
			tw.both(func(m *Machine) {
				p := m.AddProcess("t", append(testVMA(6), second), 10)
				p.HomeNode = tc.home
				if tc.mbind {
					// The second VMA interleaves from node 1 while the rest
					// of the process stays bound to its home node 0.
					p.vmas[len(p.vmas)-1].memPolicy = VMAMemPolicy{Mode: MemPolicyInterleave, Nodes: []int{1, 0}}
				}
			})
			acc := regionSweep(testVMA(6)[0], fwd)
			acc = append(acc, regionSweep(second, []int{0, 1, 2})...)
			tw.run(t, 0, acc)
		})
	}
}

// TestNUMAChargeAfterExec: exec reuses the VMA objects, so their memos must
// be cleared with the ledger. After exec the regions are first touched in
// reverse, which interleave places on the opposite nodes — a stale memo
// would charge every region wrongly.
func TestNUMAChargeAfterExec(t *testing.T) {
	tw := newNUMATwin(numaConfig(NUMAInterleave))
	tw.both(func(m *Machine) { m.AddProcess("t", testVMA(4), 10) })
	r := testVMA(4)[0]
	tw.run(t, 0, regionSweep(r, []int{0, 1, 2, 3}))
	tw.both(func(m *Machine) {
		if err := m.ExecProcess(m.Procs()[0]); err != nil {
			t.Fatal(err)
		}
	})
	tw.run(t, 0, regionSweep(r, []int{3, 2, 1, 0}))
}

// TestNUMAChargeAfterExit: an explicit ExitProcess of one job's process and
// lifecycle churn exits during the next run leave the surviving process's
// charges on its own ledger entries.
func TestNUMAChargeAfterExit(t *testing.T) {
	cfg := numaConfig(NUMAInterleave)
	cfg.Lifecycle = DefaultLifecycleConfig()
	cfg.Lifecycle.SpawnProb, cfg.Lifecycle.ExitProb = 1, 0.5
	cfg.PromotionInterval = 500
	tw := newNUMATwin(cfg)
	other := []mem.Range{{Start: 256 << 20, End: 256<<20 + 4<<21}}
	tw.both(func(m *Machine) {
		m.AddProcess("gone", other, 10)
		m.AddProcess("stays", testVMA(4), 10)
	})
	tw.run(t, 0, regionSweep(other[0], []int{0, 1, 2, 3}))
	tw.both(func(m *Machine) {
		if err := m.ExitProcess(m.Procs()[0]); err != nil {
			t.Fatal(err)
		}
	})
	tw.run(t, 0, regionSweep(testVMA(4)[0], []int{2, 0, 3, 1}))
	if tw.charged.lifecycle.Exits < 2 {
		t.Fatalf("lifecycle exits = %d, want churn exits beyond the explicit one", tw.charged.lifecycle.Exits)
	}
}

// TestNUMAChargeAfterRestore: a snapshot cut mid-placement is restored into
// a fresh machine and into one that has already filled its memos from the
// reverse placement order. Restore replaces the ledger, so it must drop
// those memos; the continued run's charges must follow the restored ledger.
func TestNUMAChargeAfterRestore(t *testing.T) {
	cfg := numaConfig(NUMAInterleave)
	r := testVMA(4)[0]
	acc := regionSweep(r, []int{0, 1, 2, 3})
	const cut = 700 // inside region 1: regions 0 and 1 are placed

	src := newNUMATwin(cfg)
	src.both(func(m *Machine) { m.AddProcess("t", testVMA(4), 10) })
	src.run(t, 0, acc[:cut])
	charged, free := src.charged.State(), src.free.State()

	for _, used := range []bool{false, true} {
		tw := newNUMATwin(cfg)
		tw.both(func(m *Machine) { m.AddProcess("t", testVMA(4), 10) })
		if used {
			tw.run(t, 0, regionSweep(r, []int{3, 2, 1, 0}))
		}
		if err := tw.charged.RestoreState(charged); err != nil {
			t.Fatal(err)
		}
		if err := tw.free.RestoreState(free); err != nil {
			t.Fatal(err)
		}
		tw.run(t, 0, acc[cut:])
	}
}
