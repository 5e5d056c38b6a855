package vmm

import (
	"fmt"

	"pccsim/internal/mem"
	"pccsim/internal/metrics"
	"pccsim/internal/tlb"
	"pccsim/internal/trace"
)

// This file holds the per-access pipeline: one tick-free segment kernel
// (executor.seg) and one full-translation step (executor.stepFull) serve
// every configuration and every run path.
//
// The kernel serves repeat accesses without entering the pipeline: a
// register-line hit is one compare and one float add, and a
// translation-table hit is one direct-mapped probe. Everything else goes
// through stepFull. The configuration dimensions that change the
// per-access body stay out of the hit paths:
//
//   - NUMA lives in stepFull only, read from an executor field: ex.numa is
//     nil when NUMA is off. Table hits reuse the armed cost, which already
//     folds the region's NUMA penalty in.
//   - The policy kind selects the fault dispatch when a machine is built
//     (policyBase). The kernel re-reads the register line after every full
//     step because a non-base policy's fault may have cleared it.
//   - Pressure and lifecycle churn run only at policy ticks, which are
//     segment boundaries, so they never appear in the body.
//   - Multi-core jobs split each segment into runs of accesses that land on
//     one core (runSeg), and each run goes through the same kernel. A run
//     flushes its deferred hits and writes its register line back before
//     the next core's run starts, so every access sees the clock and the
//     counters the per-access order gives it.
//
// All integer bookkeeping for a hit run is deferred and flushed before the
// next full step (or run end), and the per-4KB touched bits of table-served
// accesses are folded into deferred contiguous-range flushes
// (executor.touch) — while Cycles stays a per-access float add in original
// order so accumulated runtimes are bit-identical.

// noVPN is the register-line sentinel: no valid 4KB page number reaches it
// (virtual addresses are < 2^48, so VPNs are < 2^36), which turns the
// "filter armed?" check into the same compare that detects a page change.
const noVPN = ^mem.PageNum(0)

// seg runs accesses of process p on core c, none of which may cross a
// policy tick.
func (ex *executor) seg(c *Core, p *Process, seg []trace.Access) {
	proc := int32(p.ID)
	var hits uint64
	var hitSI int
	runVPN := noVPN
	var runCost float64
	if c.l0Has && c.l0Proc == proc {
		runVPN, runCost, hitSI = c.l0Page4K, c.l0Cost, int(c.l0SI)
	}
	// Cycles lives in a register across the segment: the additions happen
	// in exactly the per-access order (so float accumulation stays
	// bit-identical), only the load/store per access is hoisted. It is
	// written back around every full step, which mutates c.Cycles itself.
	cyc := c.Cycles
	for i := range seg {
		addr := seg[i].Addr
		vpn := mem.PageNum(addr >> 12)
		if vpn == runVPN {
			cyc += runCost
			hits++
			continue
		}
		if hits > 0 {
			ex.flushL0Hits(c, hitSI, hits)
			hits = 0
		}
		if s := &c.tt.slots4K[c.tt.idx4K(vpn)]; s.gen == c.tt.gen && s.page == vpn && s.proc == proc {
			// Table 4K hit: start a new same-page run without re-entering
			// the full pipeline.
			cyc += s.cost
			hits = 1
			hitSI, runVPN, runCost = 0, vpn, s.cost
			continue
		}
		hpn := mem.PageNum(addr >> 21)
		if s := &c.tt.slots2M[c.tt.idx2M(hpn)]; s.gen == c.tt.gen && s.page == hpn && s.proc == proc {
			// Table 2M hit: a guaranteed L1-2M hit served without the
			// pipeline. The access lands on a different 4KB page than
			// the arming access, so its touched bit (the bloat
			// metric's input) still needs recording — deferred into
			// the executor's contiguous-range flush.
			v := p.vmaOf(addr)
			ex.touch(v, uint64(addr-v.r.Start)>>12)
			cyc += s.cost
			hits = 1
			hitSI, runVPN, runCost = 1, vpn, s.cost
			continue
		}
		c.Cycles = cyc
		ex.stepFull(c, p, addr)
		cyc = c.Cycles
		// The full step re-arms the register line for its own access (and
		// a fault may have cleared it), so re-read it.
		if c.l0Has && c.l0Proc == proc {
			hitSI, runVPN, runCost = int(c.l0SI), c.l0Page4K, c.l0Cost
		} else {
			runVPN = noVPN
		}
	}
	c.Cycles = cyc
	if hits > 0 {
		ex.flushL0Hits(c, hitSI, hits)
	}
	if runVPN != noVPN {
		// Keep the register line pointing at the run we ended on, so the
		// next segment resumes from it.
		c.l0Has, c.l0SI, c.l0Proc, c.l0Page4K, c.l0Cost = true, int8(hitSI), proc, runVPN, runCost
	}
}

// flushL0Hits folds a run of n deferred filter hits into the counters the
// per-access path would have bumped one at a time.
func (ex *executor) flushL0Hits(c *Core, si int, n uint64) {
	ex.now += n
	c.Accesses += n
	c.TLB.CountL1HitsIndexed(si, n)
}

// stepFull is the full translation pipeline for one access: VMA lookup,
// fault handling, NUMA placement charge, TLB hierarchy, page table walk and
// PCC record buffering.
func (ex *executor) stepFull(c *Core, p *Process, addr mem.VirtAddr) {
	ex.now++
	c.Accesses++

	v := p.vmaOf(addr)
	if v == nil {
		panicOutsideVMA(p, addr)
	}
	idx := uint64(addr-v.r.Start) >> 12
	var size mem.PageSize
	var si int
	if st := v.state[idx]; st != stateUnmapped {
		// Touched bits are monotone (false→true only), so the full path
		// stores directly — cheaper than joining the executor's deferred
		// run, and always coherent with it.
		v.touched[idx] = true
		switch st {
		case state2M:
			size, si = mem.Page2M, 1
		case state1G:
			size, si = mem.Page1G, 2
		default:
			size = mem.Page4K
		}
	} else {
		size, si = ex.faultPath(c, p, v, idx, addr)
	}

	cost := ex.effCPA
	if ex.numa != nil && ex.numa.node(p, v, addr) != p.HomeNode {
		cost += ex.numa.cfg.RemotePenalty
	}
	baseCost := cost

	switch c.TLB.Access(addr, size) {
	case tlb.HitL1: // base cost only
	case tlb.HitL2:
		cost += metrics.L2TLBHit
		if size == mem.Page2M {
			v.noteUse2M(addr, ex.now)
		}
	default: // tlb.Miss → page table walk
		levels := c.Walker.Walk(addr, size)
		cost += metrics.WalkBase + float64(levels)*metrics.WalkRef
		c.TLB.Fill(addr, size)
		if size == mem.Page2M {
			v.noteUse2M(addr, ex.now)
		}
		pmd, pud := v.walk(addr, idx, size)
		ex.recordWalk(c, pmd, pud, size, addr)
	}
	c.Cycles += cost

	armL0(c, p, addr, si, baseCost)
}

// faultPath is the full step's cold unmapped-page branch: it flushes the
// deferred touch run and marks the page touched immediately (policy fault
// hooks may inspect touched state, so the bit must land before the fault
// exactly as it always has), faults, and re-reads the mapping the fault
// established.
func (ex *executor) faultPath(c *Core, p *Process, v *vma, idx uint64, addr mem.VirtAddr) (mem.PageSize, int) {
	ex.flushTouch()
	v.touched[idx] = true
	ex.fault(c, p, addr)
	s, mapped := p.StateOf(addr)
	if !mapped {
		panicFaultUnmapped(p, addr)
	}
	switch s {
	case mem.Page2M:
		return s, 1
	case mem.Page1G:
		return s, 2
	}
	return s, 0
}

// recordWalk applies the PCC insertion path (Fig. 3) for one completed
// walk: gated by the pre-walk accessed bit at the PMD (2MB) / PUD (1GB)
// level — the cold-miss filter — with the surviving record addresses
// buffered per core and flushed in walk order at segment boundaries.
func (ex *executor) recordWalk(c *Core, pmdWasAccessed, pudWasAccessed bool, size mem.PageSize, addr mem.VirtAddr) {
	if c.PCC2M != nil {
		if size == mem.Page1G {
			// 1GB-mapped walks never feed the 2MB PCC.
		} else if pmdWasAccessed || ex.coldOff {
			if len(c.pend2M) == cap(c.pend2M) {
				c.flushPCC()
			}
			c.pend2M = append(c.pend2M, addr)
		} else {
			c.Walker.NoteColdFiltered()
		}
	}
	if c.PCC1G != nil && (pudWasAccessed || ex.coldOff) {
		if len(c.pend1G) == cap(c.pend1G) {
			c.flushPCC()
		}
		c.pend1G = append(c.pend1G, addr)
	}
}

// armL0 records the completed translation in the register line and, for the
// widened classes, the persistent translation table: whichever path ran,
// the translation this access used is now the MRU way of its L1 set, so a
// repeat is an L1 hit at the base (no-TLB-miss) cost.
func armL0(c *Core, p *Process, addr mem.VirtAddr, si int, baseCost float64) {
	vpn4k := mem.PageNum(addr >> 12)
	proc := int32(p.ID)
	c.l0Has, c.l0SI, c.l0Proc, c.l0Page4K, c.l0Cost = true, int8(si), proc, vpn4k, baseCost
	switch si {
	case 0:
		c.tt.slots4K[c.tt.idx4K(vpn4k)] = transSlot{page: vpn4k, cost: baseCost, proc: proc, gen: c.tt.gen}
	case 1:
		hpn := mem.PageNum(addr >> 21)
		c.tt.slots2M[c.tt.idx2M(hpn)] = transSlot{page: hpn, cost: baseCost, proc: proc, gen: c.tt.gen}
	}
}

// touch defers the touched-bit store for the 4KB page at index idx of v:
// consecutive indexes extend the pending run, anything else flushes it. It
// serves the table-2M hit paths, where sequential sweeps inside a promoted
// region — the dominant pattern — collapse a whole segment's touched stores
// into one contiguous fill. The full-translation paths store their bit
// directly instead: touched bits are monotone (false→true only), so direct
// stores and deferred runs compose in any order. The run is flushed at
// every segment end and before any reader (faults flush explicitly; audits,
// policy ticks and state capture all happen at segment boundaries), so no
// observer can see a deferred bit missing.
func (ex *executor) touch(v *vma, idx uint64) {
	if v == ex.tV {
		switch {
		case idx == ex.tHi+1:
			ex.tHi = idx
			return
		case idx >= ex.tLo && idx <= ex.tHi:
			return
		case idx+1 == ex.tLo:
			ex.tLo = idx
			return
		}
	}
	ex.flushTouch()
	ex.tV, ex.tLo, ex.tHi = v, idx, idx
}

// flushTouch applies the pending touched-bit run.
func (ex *executor) flushTouch() {
	if ex.tV == nil {
		return
	}
	t := ex.tV.touched[ex.tLo : ex.tHi+1]
	for i := range t {
		t[i] = true
	}
	ex.tV = nil
}

// panicOutsideVMA reports an access outside every VMA: a wild pointer the
// workload generator should never produce.
func panicOutsideVMA(p *Process, addr mem.VirtAddr) {
	panic(fmt.Sprintf("vmm: access %#x outside VMAs of %s", uint64(addr), p.Name))
}

// panicFaultUnmapped reports a fault that failed to establish a mapping.
func panicFaultUnmapped(p *Process, addr mem.VirtAddr) {
	panic(fmt.Sprintf("vmm: fault left %#x unmapped in %s", uint64(addr), p.Name))
}
