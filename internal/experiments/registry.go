package experiments

import (
	"fmt"
	"sort"
)

// Driver runs one named experiment with the given options.
type Driver func(Options) error

// Registry maps experiment IDs (the -exp values of cmd/pccsim) to drivers.
// Each entry regenerates one table or figure of the paper, or one ablation.
var Registry = map[string]Driver{
	"tab1": func(o Options) error { _, err := Table1(o); return err },
	"tab2": func(o Options) error { _, err := Table2(o); return err },
	"fig1": func(o Options) error { _, err := Fig1(o); return err },
	"fig2": func(o Options) error { _, err := Fig2(o, 0); return err },
	"fig5": func(o Options) error { _, err := Fig5(o, nil); return err },
	"fig5-graph": func(o Options) error {
		_, err := Fig5(o, []string{"BFS", "SSSP", "PR"})
		return err
	},
	"fig5-synth": func(o Options) error {
		_, err := Fig5(o, []string{"canneal", "omnetpp", "xalancbmk", "dedup", "mcf"})
		return err
	},
	"fig6":                func(o Options) error { _, err := Fig6(o, nil); return err },
	"fig7":                func(o Options) error { _, err := Fig7(o, 0.9); return err },
	"fig7-50":             func(o Options) error { _, err := Fig7(o, 0.5); return err },
	"fig8":                func(o Options) error { _, err := Fig8(o, nil); return err },
	"figfrag":             func(o Options) error { _, err := FigFrag(o); return err },
	"figtenant":           func(o Options) error { _, err := FigTenant(o); return err },
	"fig9a":               func(o Options) error { _, err := Fig9(o, "PR", "mcf"); return err },
	"fig9b":               func(o Options) error { _, err := Fig9(o, "PR", "SSSP"); return err },
	"ablation-repl":       func(o Options) error { _, err := AblationReplacement(o); return err },
	"ablation-coldfilter": func(o Options) error { _, err := AblationColdFilter(o); return err },
	"ablation-decay":      func(o Options) error { _, err := AblationDecay(o); return err },
	"ablation-interval":   func(o Options) error { _, err := AblationInterval(o, nil); return err },
	"ext-victim":          func(o Options) error { _, err := ExtVictimCache(o); return err },
	"ext-1g":              func(o Options) error { _, err := Ext1G(o); return err },
	"ext-phases":          func(o Options) error { _, err := ExtPhases(o); return err },
	"ext-pwc":             func(o Options) error { _, err := ExtPWC(o); return err },
	"ext-virt":            func(o Options) error { _, err := ExtVirt(o); return err },
	"ext-bloat":           func(o Options) error { _, err := ExtBloat(o); return err },
	"ext-char":            func(o Options) error { _, err := ExtChar(o); return err },
	"ext-numa":            func(o Options) error { _, err := ExtNUMA(o); return err },
	"summary":             func(o Options) error { _, err := Summary(o); return err },
}

// Names returns the registered experiment IDs, sorted.
func Names() []string {
	names := make([]string, 0, len(Registry))
	for n := range Registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Run validates o and dispatches one experiment by name.
func Run(name string, o Options) error {
	d, ok := Registry[name]
	if !ok {
		return fmt.Errorf("experiments: unknown experiment %q (have %v)", name, Names())
	}
	if err := o.Validate(); err != nil {
		return err
	}
	return d(o)
}
