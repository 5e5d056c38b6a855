package experiments

import (
	"testing"

	"pccsim/internal/obs"
)

// TestEverySimulationPublishes: every experiment that simulates a
// vmm.Machine publishes each finished machine into Options.Obs, and drains
// its events into Options.EventSink when its policy promotes. The list
// covers every driver that builds its own machines (fig9a, fig9b,
// figtenant and the ext-* drivers) plus one runCells grid (fig1). ext-pwc
// and ext-numa run only the 4KB baseline, so they publish counters but
// have no promotions to trace.
func TestEverySimulationPublishes(t *testing.T) {
	if testing.Short() {
		t.Skip("runs nine experiments; skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("each driver's own test already runs under -race; skipped to stay within the package test timeout")
	}
	for _, tc := range []struct {
		exp    string
		events bool
	}{
		{"fig1", true},
		{"figtenant", true},
		{"fig9a", true},
		{"fig9b", true},
		{"ext-1g", true},
		{"ext-phases", true},
		{"ext-bloat", true},
		{"ext-pwc", false},
		{"ext-numa", false},
	} {
		t.Run(tc.exp, func(t *testing.T) {
			o, _ := tiny()
			o.Obs = obs.NewRegistry()
			o.EventSink = obs.NewSink(0)
			if err := Run(tc.exp, o); err != nil {
				t.Fatal(err)
			}
			if got := o.Obs.Snapshot()["machine.accesses"]; got <= 0 {
				t.Errorf("machine.accesses = %g: no machine was published to Obs", got)
			}
			if tc.events && o.EventSink.Total() == 0 {
				t.Error("a promoting policy ran, but no events reached the EventSink")
			}
		})
	}
}
