// Command perfbench is the repository benchmark. It times whole simulated
// cells and whole daemon jobs end to end, checks every result against the
// committed reference digests, and, in its traced mode, splits the host time
// by layer. Run it from the repository root:
//
//	bash perfbench/run.sh --workload utility-sweep --seed 1 --seconds 15 --trace 0
//	bash perfbench/run.sh --workload churn-pressure --seed 1 --seconds 15 --trace 1
//	bash perfbench/run.sh --steady 10 --workload tenant-fleet --seconds 15
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and the metrics (end-to-end with --trace 0, per-layer with
// --trace 1). Everything before it is a human-readable report.
package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"pccsim/internal/experiments"
)

// suite is one prepared workload: runFigure runs one repetition of its grid.
type suite interface {
	runFigure(traced bool, spans *spanLog) figure
	close() error
}

func (s *cellSuite) close() error { return nil }

// workloadDef names a workload and how to set it up.
type workloadDef struct {
	name    string
	workers int // run-pool workers, or daemon clients
	shards  int // vmm.Config.Shards of the sharded cells (0 = serial)
	setup   func(seed int64, tiny bool, st *setupStats, spans *spanLog) (suite, error)
}

var workloadDefs = []workloadDef{
	{"utility-sweep", 2, 0, func(seed int64, tiny bool, st *setupStats, sp *spanLog) (suite, error) {
		return utilitySweep(seed, tiny, st, sp)
	}},
	{"churn-pressure", 1, 0, func(seed int64, tiny bool, st *setupStats, sp *spanLog) (suite, error) {
		return churnPressure(seed, tiny, st, sp)
	}},
	{"tenant-fleet", 1, 2, func(seed int64, tiny bool, st *setupStats, sp *spanLog) (suite, error) {
		return tenantFleet(seed, tiny, st, sp)
	}},
	{"serve-grid", serveClients, 0, func(seed int64, tiny bool, st *setupStats, sp *spanLog) (suite, error) {
		return serveGrid(seed, tiny, st, sp)
	}},
}

func lookupWorkload(name string) (workloadDef, error) {
	var names []string
	for _, w := range workloadDefs {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// setupReps is how many times a run sets its workload up: setup_s is their
// median. All but the last happen in child processes, so every repetition
// starts from cold caches, as a user's first run does.
const setupReps = 3

// watchdog bounds a run's wall clock: a hung daemon job or simulation must
// not outlive the harness's per-run limit.
const watchdog = 170 * time.Second

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	tiny      bool
	setupOnly bool
	steady    int
	spansDir  string
	writeRef  string
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	var o options
	var traceFlag int
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	fl.StringVar(&o.workload, "workload", "", "workload to run: utility-sweep, churn-pressure, tenant-fleet, serve-grid")
	fl.Int64Var(&o.seed, "seed", 1, "seed: machine fragmentation, pressure and lifecycle draws; daemon job order")
	fl.Float64Var(&o.seconds, "seconds", 20, "how long to measure (whole figures are run until it elapses)")
	fl.IntVar(&traceFlag, "trace", 0, "1 = traced run: alternate untraced and traced figures and print per-layer metrics")
	fl.BoolVar(&o.tiny, "tiny", false, "run a miniature of the workload (tests and smoke checks)")
	fl.BoolVar(&o.setupOnly, "setup-only", false, "set the workload up, print the set-up time and exit")
	fl.IntVar(&o.steady, "steady", 0, "run the workload this many times at consecutive seeds and print each metric's spread")
	fl.StringVar(&o.spansDir, "spans", ".bench_build/spans", "directory the traced run writes its spans to (empty = keep in memory only)")
	fl.StringVar(&o.writeRef, "write-reference", "", "recompute the reference digests of every workload at seeds 1-16 and write them to this file")
	if err := fl.Parse(args); err != nil {
		return o, err
	}
	if fl.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %q", fl.Args())
	}
	if traceFlag != 0 && traceFlag != 1 {
		return o, fmt.Errorf("-trace must be 0 or 1, got %d", traceFlag)
	}
	o.trace = traceFlag == 1
	if o.seconds <= 0 {
		return o, fmt.Errorf("-seconds must be positive")
	}
	if o.writeRef == "" {
		if _, err := lookupWorkload(o.workload); err != nil {
			return o, err
		}
	}
	return o, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintln(stderr, "perfbench:", err)
		}
		return 2
	}
	switch {
	case o.writeRef != "":
		err = writeReference(o, stdout)
	case o.steady > 0:
		err = runSteady(o, stdout, stderr)
	default:
		dog := time.AfterFunc(watchdog, func() {
			fmt.Fprintf(stderr, "perfbench: still running after %v; giving up\n", watchdog)
			os.Exit(3)
		})
		if o.setupOnly {
			err = runSetupOnly(o, stdout)
		} else {
			err = runBench(o, stdout, stderr)
		}
		dog.Stop()
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// runSetupOnly is one child set-up repetition.
func runSetupOnly(o options, stdout io.Writer) error {
	def, _ := lookupWorkload(o.workload)
	t0 := time.Now()
	s, err := def.setup(o.seed, o.tiny, &setupStats{}, nil)
	if err != nil {
		return err
	}
	secs := time.Since(t0).Seconds()
	if err := s.close(); err != nil {
		return err
	}
	return json.NewEncoder(stdout).Encode(map[string]float64{"setup_s": secs})
}

// childSetup runs one set-up repetition in a child process.
func childSetup(o options) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	args := []string{"-setup-only", "-workload", o.workload, "-seed", strconv.FormatInt(o.seed, 10)}
	if o.tiny {
		args = append(args, "-tiny")
	}
	var out bytes.Buffer
	cmd := exec.Command(exe, args...)
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	if err := cmd.Run(); err != nil {
		return 0, fmt.Errorf("set-up child: %w", err)
	}
	var r struct {
		Setup float64 `json:"setup_s"`
	}
	if err := json.Unmarshal(lastLine(out.Bytes()), &r); err != nil {
		return 0, fmt.Errorf("set-up child output: %w", err)
	}
	return r.Setup, nil
}

func lastLine(b []byte) []byte {
	lines := bytes.Split(bytes.TrimSpace(b), []byte("\n"))
	return lines[len(lines)-1]
}

// measurement is everything one run measured.
type measurement struct {
	setups   []float64
	setup    setupStats
	untraced []figure
	traced   []figure
	rtTraced runtimeDelta // runtime counters over the traced figures
	check    *checker
	cacheMiB float64
}

type runtimeDelta struct{ gcCPU, totalCPU, allocBytes float64 }

func (d *runtimeDelta) add(a, b runtimeSample) {
	d.gcCPU += b.gcCPU - a.gcCPU
	d.totalCPU += b.totalCPU - a.totalCPU
	d.allocBytes += b.allocBytes - a.allocBytes
}

// measure sets the workload up and runs whole figures until the time is up:
// untraced only, or alternating untraced and traced ones.
func measure(def workloadDef, o options, spans *spanLog) (*measurement, error) {
	ms := &measurement{check: newChecker(referenceFor(def.name, o.seed, o.tiny))}
	for i := 1; i < setupReps && !o.tiny; i++ {
		secs, err := childSetup(o)
		if err != nil {
			return nil, err
		}
		ms.setups = append(ms.setups, secs)
	}
	t0 := time.Now()
	s, err := def.setup(o.seed, o.tiny, &ms.setup, spans)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	ms.setups = append(ms.setups, time.Since(t0).Seconds())

	runtime.GC()
	const minFigures = 2
	start := time.Now()
	for i := 0; ; i++ {
		traced := o.trace && i%2 == 1
		before := sampleRuntime()
		f := s.runFigure(traced, spans)
		after := sampleRuntime()
		ms.check.check(f.items)
		if traced {
			ms.traced = append(ms.traced, f)
			ms.rtTraced.add(before, after)
		} else {
			ms.untraced = append(ms.untraced, f)
		}
		enough := len(ms.untraced) >= minFigures && (!o.trace || len(ms.traced) >= minFigures)
		if enough && time.Since(start).Seconds() >= o.seconds {
			break
		}
	}
	_, cacheBytes := experiments.TraceCacheStats()
	ms.cacheMiB = float64(cacheBytes) / (1 << 20)
	return ms, s.close()
}

func runBench(o options, stdout, stderr io.Writer) error {
	def, _ := lookupWorkload(o.workload)
	var spans *spanLog
	if o.trace {
		spans = newSpanLog()
	}
	printHeader(stdout, def, o)
	ms, err := measure(def, o, spans)
	if err != nil {
		return err
	}
	if o.trace && o.spansDir != "" {
		path := filepath.Join(o.spansDir, fmt.Sprintf("%s-seed%d.ndjson", def.name, o.seed))
		if err := spans.write(path); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
		fmt.Fprintf(stdout, "# spans: %s\n", path)
	}
	for _, p := range ms.check.problems {
		fmt.Fprintf(stdout, "# FAILED %s\n", p)
	}
	var metrics []metric
	if o.trace {
		metrics = layerMetrics(def, ms)
		printLedger(stdout, def, ms)
	} else {
		metrics = endToEndMetrics(ms)
		items := 0
		for _, f := range ms.untraced {
			items += len(f.items)
		}
		fmt.Fprintf(stdout, "# figures: %d, items: %d (%d beyond p90)\n", len(ms.untraced), items, items/10)
	}
	return printResult(stdout, ms.check, metrics)
}

// metric is one reported value.
type metric struct {
	name  string
	value float64
	unit  string
}

// endToEndMetrics are what a user of the simulator waits for, measured with
// tracing off.
func endToEndMetrics(ms *measurement) []metric {
	var items, walls []float64
	for _, f := range ms.untraced {
		walls = append(walls, f.wall)
		for _, it := range f.items {
			if it.err == nil {
				items = append(items, it.secs)
			}
		}
	}
	return []metric{
		{"item_s_p50", quantile(items, 0.5), "s"},
		{"item_s_p90", quantile(items, 0.9), "s"},
		{"wall_s", median(walls), "s"},
		{"setup_s", median(ms.setups), "s"},
		{"max_rss_mb", maxRSSMiB(), "MiB"},
	}
}

// layerMetrics are the traced run's per-layer numbers. Times are per figure
// (the median over the traced figures); counters come from the first traced
// figure and repeat exactly at a given seed.
func layerMetrics(def workloadDef, ms *measurement) []metric {
	tf := ms.traced
	med := func(get func(f figure) float64) float64 {
		xs := make([]float64, len(tf))
		for i, f := range tf {
			xs[i] = get(f)
		}
		return median(xs)
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	perAccess := func(get func(l layerTimes) float64, n func(f figure) float64) float64 {
		return med(func(f figure) float64 { return 1e9 * ratio(get(f.layers), n(f)) })
	}
	c := tf[0].counters
	sum := func(names ...string) float64 {
		t := 0.0
		for _, n := range names {
			t += c[n]
		}
		return t
	}
	var walls, tWalls []float64
	for _, f := range ms.untraced {
		walls = append(walls, f.wall)
	}
	for _, f := range tf {
		tWalls = append(tWalls, f.wall)
	}
	var submits, queues, exps, outputs []float64
	for _, f := range tf {
		submits = append(submits, f.layers.submits...)
		queues = append(queues, f.layers.queues...)
		exps = append(exps, f.layers.exps...)
		outputs = append(outputs, f.layers.outputs...)
	}
	share := func(get func(l layerTimes) float64) float64 {
		return med(func(f figure) float64 { return ratio(get(f.layers), f.layers.cell+f.layers.job) })
	}
	busy := func(l layerTimes) float64 { return l.cell + l.exp }
	accesses := func(f figure) float64 { return float64(f.accesses) }
	failedFrac := ratio(float64(ms.check.failed), float64(ms.check.attempted))

	return []metric{
		{"vmm.run_s", med(func(f figure) float64 { return f.layers.run }), "s"},
		{"vmm.self_s", med(func(f figure) float64 { return f.layers.vmmSelf }), "s"},
		{"vmm.self_ns_per_access", perAccess(func(l layerTimes) float64 { return l.vmmSelf }, accesses), "ns"},
		{"vmm.audit_s", med(func(f figure) float64 { return f.layers.audit }), "s"},
		{"tlb.l1_hit_ratio", ratio(sum("tlb.l1d4k.hits", "tlb.l1d2m.hits", "tlb.l1d1g.hits"), c["tlb.accesses"]), "ratio"},
		{"tlb.l2_hit_ratio", ratio(c["tlb.l2.hits"], sum("tlb.l2.hits", "tlb.l2.misses")), "ratio"},
		{"tlb.walks_per_kacc", 1000 * ratio(c["tlb.walks"], c["tlb.accesses"]), "count"},
		{"ptw.pwc_hit_ratio", ratio(c["ptw.pwc.hits"], c["ptw.pwc.lookups"]), "ratio"},
		{"ptw.levels_per_walk", ratio(c["ptw.levels_read"], c["ptw.walks"]), "count"},
		{"pcc2m.hit_ratio", ratio(c["pcc2m.hits"], c["pcc2m.lookups"]), "ratio"},
		{"pcc2m.inserts", c["pcc2m.inserts"], "count"},
		{"pcc2m.evictions", c["pcc2m.evictions"], "count"},
		{"trace.decode_s", med(func(f figure) float64 { return f.layers.replay + f.layers.prefetch }), "s"},
		{"trace.decode_ns_per_access", perAccess(func(l layerTimes) float64 { return l.replay + l.prefetch },
			func(f figure) float64 { return float64(f.layers.replayItems + f.layers.prefetchItems) }), "ns"},
		{"trace.record_s", ms.setup.record, "s"},
		{"trace.record_bytes_per_access", ratio(float64(ms.setup.recordBytes), float64(ms.setup.recordAccesses)), "B"},
		{"workloads.build_s", ms.setup.build, "s"},
		{"workloads.stream_s", med(func(f figure) float64 { return f.layers.live }), "s"},
		{"workloads.stream_ns_per_access", perAccess(func(l layerTimes) float64 { return l.live },
			func(f figure) float64 { return float64(f.layers.liveItems) }), "ns"},
		{"ospolicy.tick_s", med(func(f figure) float64 { return f.layers.tick }), "s"},
		{"ospolicy.ticks", float64(tf[0].layers.ticks), "count"},
		{"ospolicy.fault_s", med(func(f figure) float64 { return f.layers.fault }), "s"},
		{"ospolicy.faults", float64(tf[0].layers.faults), "count"},
		{"physmem.churn.alloc_frames", c["physmem.churn.alloc_frames"], "count"},
		{"physmem.daemon.frames_migrated", c["physmem.daemon.frames_migrated"], "count"},
		{"physmem.huge.alloc_success_ratio", ratio(c["physmem.huge.allocs"], sum("physmem.huge.allocs", "physmem.huge.alloc_failures")), "ratio"},
		{"proc.promotions.2m", c["proc.promotions.2m"], "count"},
		{"proc.demotions", c["proc.demotions"], "count"},
		{"proc.faults", c["proc.faults"], "count"},
		{"vmm.promotion_failures", c["machine.promotion_failures"], "count"},
		{"vmm.pressure_demotions", c["machine.pressure_demotions"], "count"},
		{"vmm.lifecycle.spawns", c["machine.lifecycle.spawns"], "count"},
		{"vmm.lifecycle.exits", c["machine.lifecycle.exits"], "count"},
		{"vmm.lifecycle.execs", c["machine.lifecycle.execs"], "count"},
		{"experiments.pool_util", med(func(f figure) float64 { return ratio(busy(f.layers), f.wall*float64(def.workers)) }), "ratio"},
		{"experiments.tracecache.mb", ms.cacheMiB, "MiB"},
		{"daemon.submit_s_p50", median(submits), "s"},
		{"daemon.queue_s_p50", median(queues), "s"},
		{"daemon.exp_s_p50", median(exps), "s"},
		{"daemon.output_s_p50", median(outputs), "s"},
		{"runtime.gc_cpu_frac", ratio(ms.rtTraced.gcCPU, ms.rtTraced.totalCPU), "ratio"},
		{"runtime.alloc_bytes_per_access", ratio(ms.rtTraced.allocBytes, float64(totalAccesses(tf))), "B"},
		{"ledger.build", share(func(l layerTimes) float64 { return l.build }), "ratio"},
		{"ledger.vmm", share(func(l layerTimes) float64 { return l.vmmSelf }), "ratio"},
		{"ledger.trace", share(func(l layerTimes) float64 { return l.replay }), "ratio"},
		{"ledger.workloads", share(func(l layerTimes) float64 { return l.live }), "ratio"},
		{"ledger.ospolicy", share(func(l layerTimes) float64 { return l.tick + l.fault }), "ratio"},
		{"ledger.prefetch_overlap", share(func(l layerTimes) float64 { return l.prefetch }), "ratio"},
		{"ledger.audit_outside", share(func(l layerTimes) float64 { return l.audit }), "ratio"},
		{"ledger.daemon", share(func(l layerTimes) float64 { return l.submit + l.queue + l.tail }), "ratio"},
		{"ledger.experiments", share(func(l layerTimes) float64 { return l.exp }), "ratio"},
		{"trace.overhead", ratio(median(tWalls), median(walls)) - 1, "ratio"},
		{"failed_frac", failedFrac, "ratio"},
	}
}

func totalAccesses(fs []figure) uint64 {
	var n uint64
	for _, f := range fs {
		n += f.accesses
	}
	return n
}

// printLedger prints each layer's self time as a share of cell (or job)
// time, next to the tracing overhead.
func printLedger(w io.Writer, def workloadDef, ms *measurement) {
	m := map[string]float64{}
	for _, x := range layerMetrics(def, ms) {
		m[x.name] = x.value
	}
	pct := func(n string) string { return fmt.Sprintf("%5.1f%%", 100*m[n]) }
	if def.name == "serve-grid" {
		fmt.Fprintf(w, "# ledger %s (share of job time): experiments %s  daemon+http %s | output fetch p50 %.4fs | tracing overhead %+.1f%%\n",
			def.name, pct("ledger.experiments"), pct("ledger.daemon"), m["daemon.output_s_p50"], 100*m["trace.overhead"])
		return
	}
	fmt.Fprintf(w, "# ledger %s (share of cell time): vmm %s  trace %s  workloads %s  ospolicy %s  build %s | overlapping prefetch decode %s, audit after the cell %s | tracing overhead %+.1f%%\n",
		def.name, pct("ledger.vmm"), pct("ledger.trace"), pct("ledger.workloads"), pct("ledger.ospolicy"), pct("ledger.build"),
		pct("ledger.prefetch_overlap"), pct("ledger.audit_outside"), 100*m["trace.overhead"])
}

// printResult writes the report lines and the final JSON result line.
func printResult(w io.Writer, c *checker, metrics []metric) error {
	out := map[string]any{}
	for _, m := range metrics {
		fmt.Fprintf(w, "# %-34s %14.6g %s\n", m.name, m.value, m.unit)
		out[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	return json.NewEncoder(w).Encode(map[string]any{
		"correct":   c.failed == 0,
		"attempted": c.attempted,
		"failed":    c.failed,
		"metrics":   out,
	})
}

// printHeader describes the host and the run.
func printHeader(w io.Writer, def workloadDef, o options) {
	fmt.Fprintf(w, "# perfbench workload=%s seed=%d seconds=%g trace=%v tiny=%v\n", def.name, o.seed, o.seconds, o.trace, o.tiny)
	fmt.Fprintf(w, "# host cpu=%q nproc=%d GOMAXPROCS=%d go=%s\n", hostCPU(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	fmt.Fprintf(w, "# commit=%s pool_workers=%d shards=%d\n", commit(), def.workers, def.shards)
	if referenceFor(def.name, o.seed, o.tiny) == nil {
		fmt.Fprintf(w, "# reference digests: none for seed %d; checking self-consistency and audits only\n", o.seed)
	}
}

// commit names the source under test: the git HEAD when the checkout is a
// repository, and always a hash of the Go sources and module files.
func commit() string {
	head := "none"
	if b, err := os.ReadFile(".git/HEAD"); err == nil {
		head = strings.TrimSpace(string(b))
		if ref, ok := strings.CutPrefix(head, "ref: "); ok {
			if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
				head = strings.TrimSpace(string(b))
			}
		}
	}
	h := sha256.New()
	var files []string
	filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00%d\x00", p, len(b))
		h.Write(b)
	}
	return fmt.Sprintf("%s source=%s", head, hex.EncodeToString(h.Sum(nil))[:12])
}

// runSteady runs the workload n times at consecutive seeds, each in its own
// process as the harness does, and prints every metric's median, quartiles
// and spread, the spread judged against the bound BENCHMARK.json fixes.
func runSteady(o options, stdout, stderr io.Writer) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	bounds := map[string]float64{}
	if b, err := os.ReadFile("BENCHMARK.json"); err == nil {
		var spec struct {
			EndToEnd []struct {
				Name  string  `json:"name"`
				Bound float64 `json:"bound"`
			} `json:"end_to_end"`
		}
		if err := json.Unmarshal(b, &spec); err != nil {
			return fmt.Errorf("BENCHMARK.json: %w", err)
		}
		for _, m := range spec.EndToEnd {
			bounds[m.Name] = m.Bound
		}
	}
	values := map[string][]float64{}
	var names []string
	for i := 0; i < o.steady; i++ {
		seed := o.seed + int64(i)
		args := []string{"-workload", o.workload, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", map[bool]string{false: "0", true: "1"}[o.trace]}
		if o.tiny {
			args = append(args, "-tiny")
		}
		var out bytes.Buffer
		cmd := exec.Command(exe, args...)
		cmd.Stdout, cmd.Stderr = &out, stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		var r struct {
			Correct bool `json:"correct"`
			Failed  int  `json:"failed"`
			Metrics map[string]struct {
				Value float64 `json:"value"`
			} `json:"metrics"`
		}
		if err := json.Unmarshal(lastLine(out.Bytes()), &r); err != nil {
			return fmt.Errorf("seed %d result: %w", seed, err)
		}
		fmt.Fprintf(stdout, "seed %d: correct=%v failed=%d\n", seed, r.Correct, r.Failed)
		for n, m := range r.Metrics {
			if _, ok := values[n]; !ok {
				names = append(names, n)
			}
			values[n] = append(values[n], m.Value)
		}
	}
	sort.Strings(names)
	bw := bufio.NewWriter(stdout)
	fmt.Fprintf(bw, "%-34s %12s %12s %12s %8s %7s  %s\n", "metric", "median", "q1", "q3", "spread", "bound", "verdict")
	for _, n := range names {
		q1, q2, q3 := quartiles(values[n])
		spread := 0.0
		if q2 != 0 {
			spread = (q3 - q1) / q2
		}
		verdict := ""
		if b, ok := bounds[n]; ok {
			switch {
			case n == "setup_s":
				verdict = "(set-up: spread not bounded)"
			case spread <= b/3:
				verdict = "steady (< bound/3)"
			case spread <= b:
				verdict = "within bound, not below bound/3"
			default:
				verdict = "TOO NOISY"
			}
			fmt.Fprintf(bw, "%-34s %12.6g %12.6g %12.6g %7.2f%% %6.0f%%  %s\n", n, q2, q1, q3, 100*spread, 100*b, verdict)
		} else {
			fmt.Fprintf(bw, "%-34s %12.6g %12.6g %12.6g %7.2f%% %7s\n", n, q2, q1, q3, 100*spread, "-")
		}
	}
	return bw.Flush()
}
