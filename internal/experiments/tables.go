package experiments

import (
	"pccsim/internal/mem"
	"pccsim/internal/metrics"
	"pccsim/internal/pcc"
	"pccsim/internal/vmm"
	"pccsim/internal/workloads"
)

// Table1 reproduces the paper's Table 1 analogue: the evaluation
// applications with their inputs, node/edge counts and simulated footprints
// (scaled down from the paper's multi-GB datasets; see DESIGN.md).
func Table1(o Options) ([]workloads.Info, error) {
	infos, err := workloads.TableInfo(o.Scale)
	if err != nil {
		return nil, err
	}
	t := metrics.NewTable("Application", "Input", "Nodes", "Edges", "Footprint")
	for _, in := range infos {
		nodes, edges := "-", "-"
		if in.Nodes > 0 {
			nodes = itoa(in.Nodes)
			edges = utoa(in.Edges)
		}
		t.AddRow(in.Application, in.Input, nodes, edges, mem.HumanBytes(in.Footprint))
	}
	o.printf("Table 1 — evaluation applications and inputs (scaled; paper used 10-38GB inputs)\n\n%s", t.String())
	return infos, nil
}

// Table2 reproduces Table 2: the simulated system parameters.
func Table2(o Options) (vmm.Config, error) {
	cfg := vmm.DefaultConfig()
	cfg.PromotionInterval = o.Interval
	cfg.Phys.TotalBytes = o.PhysBytes

	t := metrics.NewTable("Parameter", "Value")
	t.AddRow("Processor", "simulated Haswell-class core(s), cycle cost model")
	t.AddRow("L1 D-TLB 4KB", fmtTLB(cfg.TLB.L1D4K.Entries, cfg.TLB.L1D4K.Ways))
	t.AddRow("L1 D-TLB 2MB", fmtTLB(cfg.TLB.L1D2M.Entries, cfg.TLB.L1D2M.Ways))
	t.AddRow("L1 D-TLB 1GB", fmtTLB(cfg.TLB.L1D1G.Entries, cfg.TLB.L1D1G.Ways))
	t.AddRow("L2 TLB (4KB&2MB)", fmtTLB(cfg.TLB.L2.Entries, cfg.TLB.L2.Ways))
	t.AddRow("Memory", mem.HumanBytes(cfg.Phys.TotalBytes))
	t.AddRow("2MB PCC", itoa(cfg.PCC2M.Entries)+" entries, fully associative, "+
		itoa(cfg.PCC2M.CounterBits)+"-bit counters, "+cfg.PCC2M.Replacement.String())
	t.AddRow("1GB PCC", itoa(pcc.DefaultConfig1G().Entries)+" entries, fully associative")
	t.AddRow("Promotion interval", utoa(cfg.PromotionInterval)+" simulated accesses")
	t.AddRow("Promotions/interval", "up to 128 (regions_to_promote)")
	o.printf("Table 2 — evaluation system parameters\n\n%s", t.String())
	return cfg, nil
}

func fmtTLB(entries, ways int) string {
	if entries == ways {
		return itoa(entries) + " entries, fully associative"
	}
	return itoa(entries) + " entries, " + itoa(ways) + "-way"
}

func itoa(n int) string { return utoa(uint64(n)) }

func utoa(n uint64) string {
	if n == 0 {
		return "0"
	}
	var buf [24]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
