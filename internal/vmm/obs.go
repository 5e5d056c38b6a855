package vmm

import (
	"math"

	"pccsim/internal/obs"
)

// MetricsPublisher is the optional interface an OS policy implements to
// contribute its own counters to Machine.Metrics.
type MetricsPublisher interface {
	PublishMetrics(s obs.Snapshot)
}

// PolicyAuditor is the optional interface an OS policy implements so
// Machine.Audit can cross-check the engine's internal state (e.g. its
// promotion tallies) against the machine's ground truth.
type PolicyAuditor interface {
	AuditPolicy(m *Machine) []string
}

// Events returns the machine's event trace (nil when tracing is disabled;
// nil is safe to pass to obs.Sink.Drain and to record into).
func (m *Machine) Events() *obs.EventLog { return m.events }

// Notef records a custom event on the machine's trace at the current
// simulated instant. OS policies use it for decisions the machine core
// cannot see (candidate dumps, sampling rounds). Formatting is skipped
// entirely when tracing is off.
func (m *Machine) Notef(kind, format string, args ...interface{}) {
	m.events.Recordf(m.accessCount, kind, format, args...)
}

// Metrics captures the whole machine as one flat snapshot: every core's TLB
// hierarchy, walker and candidate caches, the physical memory model, the
// per-process promotion accounting, and whatever the installed policy
// publishes. All values are integral (cycle totals are rounded) so that
// snapshots merged across runs — in any order — produce identical totals.
func (m *Machine) Metrics() obs.Snapshot {
	s := obs.Snapshot{}
	s.Add("machine.accesses", float64(m.accessCount))
	s.Add("machine.promotion_failures", float64(m.PromotionFailures))
	s.Add("machine.pressure_demotions", float64(m.PressureDemotions))
	s.Add("machine.lifecycle.spawns", float64(m.lifecycle.Spawns))
	s.Add("machine.lifecycle.exits", float64(m.lifecycle.Exits))
	s.Add("machine.lifecycle.execs", float64(m.lifecycle.Execs))
	s.Add("machine.lifecycle.promotions.2m", float64(m.lifecycle.Promotions2M))
	s.Add("machine.reaped.promotions.2m", float64(m.reaped.Promotions2M))
	s.Add("machine.reaped.demotions", float64(m.reaped.Demotions))
	s.Add("machine.background_cycles", math.Round(m.BackgroundCycles))
	s.Add("machine.events", float64(m.events.Total()))
	for _, c := range m.cores {
		c.TLB.Publish(s, "tlb")
		c.Walker.Publish(s, "ptw")
		if c.PCC2M != nil {
			c.PCC2M.Publish(s, "pcc2m")
		}
		if c.PCC1G != nil {
			c.PCC1G.Publish(s, "pcc1g")
		}
		if c.Victim != nil {
			c.Victim.Publish(s, "victim")
		}
		s.Add("machine.cycles", math.Round(c.Cycles))
		s.Add("machine.stall_cycles", math.Round(c.StallCycles))
	}
	m.phys.Publish(s, "physmem")
	for _, p := range m.procs {
		s.Add("proc.faults", float64(p.Faults))
		s.Add("proc.huge_faults", float64(p.HugeFaults))
		s.Add("proc.promotions.2m", float64(p.Promotions2M))
		s.Add("proc.promotions.1g", float64(p.Promotions1G))
		s.Add("proc.demotions", float64(p.Demotions))
		s.Add("proc.huge_pages.2m", float64(p.HugePages2M()))
		s.Add("proc.huge_pages.1g", float64(p.HugePages1G()))
	}
	if pub, ok := m.policy.(MetricsPublisher); ok {
		pub.PublishMetrics(s)
	}
	return s
}
