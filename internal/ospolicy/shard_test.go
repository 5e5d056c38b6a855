package ospolicy

import (
	"fmt"
	"reflect"
	"testing"

	"pccsim/internal/mem"
	"pccsim/internal/trace"
	"pccsim/internal/vmm"
)

// The sharded coordinator runs only under a base-fault-only policy; the
// engine must stay one for TestPCCEngineShardedTenants to reach it.
var _ vmm.BaseFaultOnly = (*PCCEngine)(nil)

// shardedTenantRun runs figtenant's shape at the given shard count: four
// AddTenant tenants on cores 0-3 with skewed HugeShares of a scarce
// machine-wide budget, lifecycle churn, one PCCEngine bound to every core,
// and each job fed a columnar block replay.
func shardedTenantRun(t *testing.T, shards int) (*vmm.Machine, vmm.RunResult) {
	t.Helper()
	cfg := testConfig(true)
	cfg.Cores = 4
	cfg.Shards = shards
	cfg.MaxHugeBytesTotal = 40 << 20 // 20 2MB pages for 32 regions of tenants
	cfg.Lifecycle = vmm.DefaultLifecycleConfig()
	engine := NewPCCEngine(DefaultPCCEngineConfig())
	m := vmm.NewMachine(cfg, engine)
	shares := []float64{0.7, 0.1, 0.1, 0.1}
	jobs := make([]*vmm.Job, len(shares))
	for i, share := range shares {
		start := mem.VirtAddr(i+1) << 30
		r := mem.Range{Start: start, End: start + 8<<21}
		p, err := m.AddTenant(vmm.TenantConfig{
			Name:      fmt.Sprintf("tenant%d", i),
			Ranges:    []mem.Range{r},
			BaseCPA:   10,
			HugeShare: share,
		})
		if err != nil {
			t.Fatal(err)
		}
		engine.Bind(i, p)
		// Unequal lengths end the jobs at different points between ticks.
		stream := trace.RecordBlocks(hotStream(r, 24_000+7_000*i), 0).Replay()
		jobs[i] = &vmm.Job{Proc: p, Stream: stream, Cores: []int{i}}
	}
	return m, m.Run(jobs...)
}

// TestPCCEngineShardedTenants: four independent tenant jobs under the PCC
// engine split into four groups, so Shards above 1 runs them on the
// epoch-barrier coordinator, with promotions and churn at its tick
// barriers. The run's result, metrics snapshot and full machine state (the
// engine's ledgers included) must equal the serial run's at Shards 2 and 4.
func TestPCCEngineShardedTenants(t *testing.T) {
	m, want := shardedTenantRun(t, 1)
	if ls := m.LifecycleStats(); ls.Spawns == 0 || ls.Exits+ls.Execs == 0 {
		t.Fatalf("lifecycle churn must spawn and exit or exec for the comparison to bite: %+v", ls)
	}
	if want.Promotions == 0 {
		t.Fatal("the engine must promote for the comparison to bite")
	}
	wantMetrics, wantState := m.Metrics(), m.State()
	for _, shards := range []int{2, 4} {
		m, got := shardedTenantRun(t, shards)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("shards=%d: RunResult diverges:\ngot  %+v\nwant %+v", shards, got, want)
		}
		if got := m.Metrics(); !reflect.DeepEqual(got, wantMetrics) {
			t.Errorf("shards=%d: metrics diverge:\ngot  %v\nwant %v", shards, got, wantMetrics)
		}
		if !reflect.DeepEqual(m.State(), wantState) {
			t.Errorf("shards=%d: machine state diverges from the serial run", shards)
		}
	}
}
