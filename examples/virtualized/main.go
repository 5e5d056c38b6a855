// Virtualized: run a TLB-hostile guest workload under nested translation
// (§5.4.3 of the paper) and compare four promotion strategies — none,
// guest-only, host-only, and the coordinated guest+hypercall scheme the
// paper prescribes. Only coordination lets the hardware cache 2MB combined
// translations; one-sided promotion merely shortens the nested walk.
package main

import (
	"fmt"
	"math/rand"

	"pccsim/internal/mem"
	"pccsim/internal/trace"
	"pccsim/internal/virt"
)

func main() {
	const regions = 48
	start := mem.VirtAddr(128) << 30
	vmas := []mem.Range{{Start: start, End: start + mem.VirtAddr(regions)<<21}}

	stream := func(seed int64, n uint64) trace.Stream {
		rng := rand.New(rand.NewSource(seed))
		return trace.Zipf(vmas[0].Start, vmas[0].Len(), 1.2, n, rng)
	}

	type variant struct {
		name    string
		promote func(m *virt.Machine, base mem.VirtAddr) error
	}
	variants := []variant{
		{"4KB everywhere", nil},
		{"guest 2MB only", func(m *virt.Machine, b mem.VirtAddr) error { return m.PromoteGuest2M(b) }},
		{"host 2MB only", func(m *virt.Machine, b mem.VirtAddr) error { return m.PromoteHost2M(b) }},
		{"coordinated", func(m *virt.Machine, b mem.VirtAddr) error { return m.PromoteBoth2M(b) }},
	}

	fmt.Printf("guest footprint: %s over nested 4-level/4-level translation\n\n",
		mem.HumanBytes(vmas[0].Len()))
	fmt.Printf("%-16s %12s %8s %10s\n", "strategy", "cycles", "PTW%", "refs/walk")

	var base float64
	for _, v := range variants {
		m := virt.NewMachine(vmas[0])
		m.Run(stream(1, 2_000_000)) // fault in + let the guest PCC rank
		if v.promote != nil {
			// The guest OS promotes what its PCC surfaced, then sweeps
			// the remainder (the unconstrained-budget case).
			for _, c := range m.GuestPCC().Dump() {
				_ = v.promote(m, c.Region.Base)
			}
			for b := vmas[0].Start; b < vmas[0].End; b += mem.VirtAddr(mem.Page2M) {
				_ = v.promote(m, b)
			}
		}
		m.Cycles, m.Accesses, m.Walks, m.NestedRefs = 0, 0, 0, 0
		m.Run(stream(2, 6_000_000))
		if base == 0 {
			base = m.Cycles
		}
		fmt.Printf("%-16s %12.0f %7.2f%% %10.1f   (%.2fx)\n",
			v.name, m.Cycles, 100*m.PTWRate(), m.RefsPerWalk(), base/m.Cycles)
	}
}
