package experiments

import (
	"math/rand"

	"pccsim/internal/mem"
	"pccsim/internal/metrics"
	"pccsim/internal/trace"
	"pccsim/internal/virt"
	"pccsim/internal/vmm"
	"pccsim/internal/workloads"
)

// ExtVirtResult reports the §5.4.3 virtualization study: the guest OS and
// the hypervisor must promote together for huge pages to pay off in a VM.
type ExtVirtResult struct {
	BaseCycles  float64
	GuestOnly   float64 // speedup with guest promotion alone
	HostOnly    float64 // speedup with host promotion alone
	Coordinated float64 // speedup with guest+hypercall promotion
	BasePTW     float64
	CoordPTW    float64
	NestedRefs  float64 // refs/walk at baseline (the virtualization tax)
}

// ExtVirt reproduces the §5.4.3 argument on the nested-translation model:
// a TLB-hostile guest workload is run under (a) 4KB everywhere, (b) guest
// promotion of the PCC's candidates without hypervisor cooperation, (c)
// host promotion alone, (d) the coordinated scheme where each guest
// promotion hypercalls the hypervisor. Only (d) lets the hardware cache
// 2MB combined translations.
func ExtVirt(o Options) (*ExtVirtResult, error) {
	regions := 96
	accesses := 12_000_000
	if o.Scale < workloads.DefaultScale {
		regions = 24
		accesses = int(o.SynthAccesses) * 4
	}
	start := mem.VirtAddr(96) << 30
	vmas := []mem.Range{{Start: start, End: start + mem.VirtAddr(regions)<<21}}

	// Zipf-reused accesses: TLB-hostile at 4KB (working set >> L2 reach)
	// but with genuine reuse, so the translation overhead is a large —
	// not degenerate — fraction of runtime.
	mkStream := func(seed int64) trace.Stream {
		rng := rand.New(rand.NewSource(seed))
		return trace.Zipf(vmas[0].Start, vmas[0].Len(), 1.2, uint64(accesses), rng)
	}

	run := func(promote func(m *virt.Machine, base mem.VirtAddr) error) *virt.Machine {
		m := virt.NewMachine(vmas[0])
		// Warm-up: fault everything in and let the guest PCC rank.
		m.Run(trace.Limit(mkStream(11), uint64(accesses/4)))
		if promote != nil {
			// The guest OS promotes its PCC's candidates; the variant
			// decides what the hypervisor does.
			for _, c := range m.GuestPCC().Dump() {
				_ = promote(m, c.Region.Base)
			}
			// Promote remaining regions too (the ~100% budget case) so
			// the comparison isolates the coordination question.
			for b := vmas[0].Start; b < vmas[0].End; b += mem.VirtAddr(mem.Page2M) {
				_ = promote(m, b)
			}
		}
		// Measurement phase.
		m.Cycles, m.Accesses, m.Walks, m.NestedRefs = 0, 0, 0, 0
		m.Run(mkStream(13))
		return m
	}

	base := run(nil)
	guest := run(func(m *virt.Machine, b mem.VirtAddr) error { return m.PromoteGuest2M(b) })
	host := run(func(m *virt.Machine, b mem.VirtAddr) error { return m.PromoteHost2M(b) })
	coord := run(func(m *virt.Machine, b mem.VirtAddr) error { return m.PromoteBoth2M(b) })

	res := &ExtVirtResult{
		BaseCycles:  base.Cycles,
		GuestOnly:   metrics.Speedup(base.Cycles, guest.Cycles),
		HostOnly:    metrics.Speedup(base.Cycles, host.Cycles),
		Coordinated: metrics.Speedup(base.Cycles, coord.Cycles),
		BasePTW:     base.PTWRate(),
		CoordPTW:    coord.PTWRate(),
		NestedRefs:  base.RefsPerWalk(),
	}

	t := metrics.NewTable("Config", "Speedup", "PTW%", "refs/walk")
	t.AddRowf("4KB guest + 4KB host", 1.0, 100*base.PTWRate(), base.RefsPerWalk())
	t.AddRowf("2MB guest only", res.GuestOnly, 100*guest.PTWRate(), guest.RefsPerWalk())
	t.AddRowf("2MB host only", res.HostOnly, 100*host.PTWRate(), host.RefsPerWalk())
	t.AddRowf("coordinated (hypercall)", res.Coordinated, 100*coord.PTWRate(), coord.RefsPerWalk())
	o.printf("Extension — virtualization (§5.4.3): guest and hypervisor must promote together\n\n%s", t.String())
	o.printf("(nested walks are modeled without nested paging-structure caches, so the\n" +
		" coordinated win is an upper bound on the virtualization tax recovered)\n\n")
	return res, nil
}

// ExtBloatResult reports the memory-bloat comparison.
type ExtBloatResult struct {
	LinuxBloat   uint64
	PCCBloat     uint64
	LinuxSpeedup float64
	PCCSpeedup   float64
	Touched      uint64
}

// ExtBloat quantifies §2.1's THP bloat on a lazily-populated sparse arena:
// greedy fault-time 2MB allocation backs 511 untouched pages for every
// touched one, while PCC-driven promotion only collapses regions the
// workload demonstrably hammers.
func ExtBloat(o Options) (*ExtBloatResult, error) {
	params := workloads.DefaultSparseParams()
	if o.Scale < workloads.DefaultScale {
		params.VMABytes = 64 << 20
		params.Accesses = o.SynthAccesses * 2
	}
	run := func(rc runCfg) (vmm.RunResult, *vmm.Process) {
		wl := extWorkload{workloads.Sparse(params), 20}
		m, res := o.simulate("ext-bloat/"+rc.kind.String(), o.soloBuild(rc, wl, wl.Stream))
		return res, m.Procs()[0]
	}

	base, _ := run(runCfg{kind: polBaseline})
	lx, lxp := run(runCfg{kind: polLinux})
	// A bloat-conscious OS policy: require a minimum walk frequency before
	// spending a huge page, so one-shot lazily-populated regions are never
	// collapsed.
	pc, pcp := run(runCfg{kind: polPCC, minFreq: 8})

	res := &ExtBloatResult{
		LinuxBloat:   lxp.BloatBytes(),
		PCCBloat:     pcp.BloatBytes(),
		LinuxSpeedup: metrics.Speedup(base.Cycles, lx.Cycles),
		PCCSpeedup:   metrics.Speedup(base.Cycles, pc.Cycles),
		Touched:      pcp.TouchedBytes(),
	}
	t := metrics.NewTable("Policy", "Speedup", "Bloat", "Huge pages")
	t.AddRow("4KB baseline", "1.000", "0B", "0")
	t.AddRowf("Linux THP (greedy)", res.LinuxSpeedup, mem.HumanBytes(res.LinuxBloat), lx.HugePages2M)
	t.AddRowf("PCC promotion", res.PCCSpeedup, mem.HumanBytes(res.PCCBloat), pc.HugePages2M)
	o.printf("Extension — memory bloat on a lazily-populated sparse arena (§2.1)\n")
	o.printf("arena %s, touched %s\n\n%s\n",
		mem.HumanBytes(params.VMABytes), mem.HumanBytes(res.Touched), t.String())
	return res, nil
}
