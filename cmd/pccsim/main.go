// Command pccsim regenerates the paper's tables and figures from the
// simulator, runs custom simulation cells, and serves experiment grids.
// Each -exp value corresponds to one artifact of the evaluation (see
// DESIGN.md's experiment index):
//
//	pccsim -exp list                 # show available experiments
//	pccsim -exp fig5                 # single-thread utility curves
//	pccsim -exp fig7 -scale 19       # 90%-fragmentation comparison
//	pccsim -exp figfrag              # policy sweep under dynamic churn + kcompactd
//	pccsim -exp all -quick           # everything, CI-sized
//
// The -quick flag shrinks workloads to seconds-per-experiment; -full runs
// the three-dataset geomean configuration the paper uses. Observability
// flags: -audit arms the per-tick invariant auditor and prints the merged
// metrics snapshot, -events writes the simulation event trace to a file,
// -pprof serves the Go profiling endpoints while experiments run.
// Performance flags: -workers parallelizes the grid simulations and
// -tracecache bounds the shared trace record/replay cache (0 disables it);
// neither changes any experiment's output.
//
// Cell mode: -app runs one custom configuration, or a -budgets sweep of it,
// and prints raw counters per budget (see experiments.Cell):
//
//	pccsim -app PR -policy pcc -budgets 4 -frag 0.5
//	pccsim -app BFS -policy linux -frag 0.9 -threads 4
//	pccsim -app PR -policy pcc -budgets 0,4,25 -quick
//	pccsim -app PR -policy pcc -frag 0.9 -churn 2048 -compact 512 -demote-wm 8
//	pccsim -app trace:app.trc -policy hawkeye
//
// The paper's two-step method (§4) is a cell pair: -record writes the run's
// promotion candidate trace, and -policy replay:<file> performs those
// promotions on a machine without PCC hardware that ticks every
// interval/100 accesses. -char characterizes the cell's stream instead of
// simulating it: its Fig. 2 reuse classes and columnar block shape as '#'
// lines, then the per-page reuse distances as TSV:
//
//	pccsim -app BFS -scale 12 -interval 20000 -record bfs.jsonl
//	pccsim -app BFS -scale 12 -interval 20000 -policy replay:bfs.jsonl
//	pccsim -app BFS -scale 17 -char > bfs_reuse.tsv
//
// Daemon mode: -serve addr runs a long-lived HTTP server accepting
// experiment grids (POST /jobs) and streaming progress; with -checkpoint it
// saves completed work on SIGTERM and, restarted with -restore, finishes
// the pending grid. See internal/daemon.
//
// Every flag belongs to the modes it has an effect in; one set outside its
// mode is refused. Invalid input exits 2 before anything runs.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"pccsim/internal/daemon"
	"pccsim/internal/experiments"
	"pccsim/internal/obs"
	"pccsim/internal/workloads"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// The four modes; a flag's mode mask lists those it has an effect in.
const (
	modeExp = 1 << iota
	modeCell
	modeChar
	modeServe
)

var modeNames = map[int]string{modeExp: "-exp runs", modeCell: "-app cells", modeChar: "-char", modeServe: "-serve"}

// flagModes restricts flags to the modes they act in; flags not listed
// size every mode's workloads.
var flagModes = map[string]int{
	"exp": modeExp, "serve": modeServe, "checkpoint": modeServe, "restore": modeServe,
	"interval": modeExp | modeCell | modeServe, "seed": modeExp | modeCell | modeServe,
	"workers": modeExp | modeCell | modeServe, "tracecache": modeExp | modeCell | modeServe,
	"full": modeExp | modeServe, "plots": modeExp | modeServe, "tenants": modeExp | modeServe,
	"churn-procs": modeExp | modeServe, "quota-skew": modeExp | modeServe,
	"audit": modeExp | modeCell, "events": modeExp | modeCell, "pprof": modeExp | modeCell,
	"app": modeCell | modeChar, "dataset": modeCell | modeChar, "sorted": modeCell | modeChar, "char": modeChar,
	"policy": modeCell, "budgets": modeCell, "record": modeCell,
	"frag": modeCell, "threads": modeCell, "phys": modeCell, "pcc": modeCell, "demote": modeCell,
	"victim": modeCell, "1g": modeCell, "churn": modeCell, "compact": modeCell, "demote-wm": modeCell,
	"numa": modeCell,
}

// run is main with its dependencies injected, so CLI behaviour (flag
// validation, exit codes, output) is unit-testable.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pccsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp       = fs.String("exp", "list", "experiment id, comma list, or 'all'")
		quick     = fs.Bool("quick", false, "CI-sized workloads (seconds per experiment)")
		full      = fs.Bool("full", false, "all three graph datasets (paper's 6-dataset geomean)")
		scale     = fs.Int("scale", 0, "override graph scale (2^scale vertices)")
		interval  = fs.Uint64("interval", 0, "override promotion interval (accesses)")
		accesses  = fs.Uint64("accesses", 0, "override the synthetic apps' access count after their initialization pass (a cell reads it only for canneal, omnetpp, xalancbmk, dedup and mcf)")
		seed      = fs.Int64("seed", 0, "override fragmentation seed")
		plots     = fs.String("plots", "", "also write SVG figures into this directory")
		workers   = fs.Int("workers", 0, "parallel simulations per experiment (0 = GOMAXPROCS); output is identical at any setting")
		traceMiB  = fs.Int64("tracecache", 512, "trace record/replay cache budget in MiB (0 disables); output is identical either way")
		audit     = fs.Bool("audit", false, "verify machine invariants every policy tick and print the merged metrics snapshot")
		events    = fs.String("events", "", "write the simulation event trace (promotions, PCC dumps, compactions, shootdowns) to this file")
		pprofAddr = fs.String("pprof", "", "serve Go pprof endpoints on this address (e.g. localhost:6060) while running")
		tenants   = fs.Int("tenants", 0, "restrict figtenant to this tenant count (0 = sweep 2 and 4)")
		churnP    = fs.Int("churn-procs", 0, "cap on concurrent churn processes in figtenant's lifecycle cells (0 = default)")
		skew      = fs.String("quota-skew", "", "restrict figtenant's quota split: even or skewed (default: sweep both)")
		serveAddr = fs.String("serve", "", "run as a long-lived daemon serving the experiment HTTP API on this address (e.g. localhost:8080)")
		ckptPath  = fs.String("checkpoint", "", "grid checkpoint file the daemon writes on SIGTERM/SIGINT (requires -serve)")
		restore   = fs.Bool("restore", false, "resume pending grid work from -checkpoint at startup (requires -serve and -checkpoint)")
		budgets   = fs.String("budgets", "0", "cell promotion budgets, comma list of % of footprint, one run each (0 and 100 = unlimited)")
		physGiB   = fs.Float64("phys", 2, "cell physical memory in GiB (0.5 with -quick, unless set)")
	)
	// The remaining cell flags bind straight into the cell.
	var cell experiments.Cell
	fs.StringVar(&cell.App, "app", "", "run one custom cell of this workload: a registry app, phased, bigtable, sparse, or trace:<file>")
	fs.StringVar((*string)(&cell.Dataset), "dataset", "kron", "cell graph dataset (kron|social|web)")
	fs.BoolVar(&cell.Sorted, "sorted", false, "cell graph input with degree-based grouping")
	fs.StringVar(&cell.Policy, "policy", "pcc", "cell OS policy: base|ideal|pcc|pcc-rr|hawkeye|linux|replay:<file> (replays a -record trace, ticking every interval/100)")
	fs.Float64Var(&cell.Frag, "frag", 0, "cell fragmented fraction of physical memory")
	fs.IntVar(&cell.Threads, "threads", 1, "cell simulated cores")
	fs.IntVar(&cell.PCCEntries, "pcc", 128, "cell 2MB PCC entries")
	fs.BoolVar(&cell.Demote, "demote", false, "cell PCC policy: enable PCC-driven demotion")
	fs.BoolVar(&cell.Victim, "victim", false, "cell PCC policy: use the L2-eviction victim tracker instead of the PCC")
	fs.BoolVar(&cell.Giga, "1g", false, "cell PCC policy: enable 1GB tracking and promotion")
	fs.IntVar(&cell.Churn, "churn", 0, "cell dynamic pressure: churn allocations per tick in 4KB frames (half as many are freed)")
	fs.IntVar(&cell.Compact, "compact", 0, "cell dynamic pressure: kcompactd migration budget per tick in 4KB frames")
	fs.IntVar(&cell.DemoteWM, "demote-wm", 0, "cell dynamic pressure: free-block watermark that triggers 2MB demotion")
	fs.StringVar(&cell.NUMA, "numa", "", "cell 2-node NUMA placement: bind|interleave|local-first (default: one node)")
	fs.StringVar(&cell.Record, "record", "", "write the cell run's promotion candidate trace to this file (one budget only)")
	fs.BoolVar(&cell.Char, "char", false, "characterize the cell's stream instead of simulating it: reuse classes and block shape as # lines, then per-page reuse TSV")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	refuse := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "pccsim: "+format+"\n", args...)
		return 2
	}
	if *ckptPath != "" && *serveAddr == "" {
		return refuse("-checkpoint requires -serve")
	}
	if *restore && *ckptPath == "" {
		return refuse("-restore requires -checkpoint")
	}
	mode := modeExp
	switch {
	case *serveAddr != "":
		mode = modeServe
	case cell.App != "" && cell.Char:
		mode = modeChar
	case cell.App != "":
		mode = modeCell
	}
	set := map[string]bool{}
	var misplaced []string // in name order
	fs.Visit(func(f *flag.Flag) {
		set[f.Name] = true
		if m, ok := flagModes[f.Name]; ok && m&mode == 0 {
			misplaced = append(misplaced, f.Name)
		}
	})
	if len(misplaced) > 0 {
		return refuse("-%s does not apply to %s", misplaced[0], modeNames[mode])
	}
	if *quick && *full {
		return refuse("-quick and -full are mutually exclusive")
	}
	if *workers < 0 {
		return refuse("-workers must be >= 0, got %d", *workers)
	}
	if *scale < 0 || *scale > workloads.MaxScale {
		return refuse("-scale must be 1..%d (or 0 for each experiment's default), got %d", workloads.MaxScale, *scale)
	}
	if *traceMiB < 0 || *traceMiB > math.MaxInt64>>20 {
		// The upper bound keeps the byte count (MiB << 20) from wrapping.
		return refuse("-tracecache must be >= 0 and <= %d MiB, got %d", int64(math.MaxInt64>>20), *traceMiB)
	}

	// buildOptions assembles the experiment options for a given report
	// writer: the one-shot CLI path uses stdout; the daemon builds a fresh
	// set (with a per-job buffer) for every job it runs.
	buildOptions := func(out io.Writer) experiments.Options {
		o := experiments.DefaultOptions(out)
		if *quick {
			o = experiments.QuickOptions(out)
		}
		if *full {
			o = experiments.FullOptions(out)
		}
		if *scale > 0 {
			o.Scale = *scale
		}
		if *interval > 0 {
			o.Interval = *interval
		}
		if *accesses > 0 {
			o.SynthAccesses = *accesses
		}
		if *seed != 0 {
			o.Seed = *seed
		}
		o.PlotDir = *plots
		o.Workers = *workers
		if *traceMiB == 0 {
			o.TraceCache = -1 // disabled: always generate streams live
		} else {
			o.TraceCache = *traceMiB << 20
		}
		o.Tenants = *tenants
		o.ChurnProcs = *churnP
		o.QuotaSkew = *skew
		if set["phys"] {
			o.PhysBytes = gibBytes(*physGiB)
		}
		return o
	}
	o := buildOptions(stdout)
	if err := o.Validate(); err != nil {
		return refuse("%v", err)
	}

	if mode == modeServe {
		srv, err := daemon.New(daemon.Config{
			BaseOptions:    buildOptions,
			CheckpointPath: *ckptPath,
			Resume:         *restore,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(stderr, format+"\n", args...)
			},
		})
		if err != nil {
			fmt.Fprintf(stderr, "pccsim: -serve: %v\n", err)
			return 1
		}
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		if err := srv.ListenAndServe(ctx, *serveAddr); err != nil {
			fmt.Fprintf(stderr, "pccsim: -serve: %v\n", err)
			return 1
		}
		return 0
	}

	// Validate the whole request — every experiment name, or the cell —
	// before running any of it: a typo at the end of a comma list must not
	// waste the minutes the earlier entries take.
	var selected []string
	switch {
	case mode == modeCell || mode == modeChar:
		for _, b := range strings.Split(*budgets, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(b), 64)
			if err != nil {
				return refuse("-budgets: bad entry %q", b)
			}
			cell.Budgets = append(cell.Budgets, v)
		}
		if err := cell.Validate(o); err != nil {
			return refuse("%v", err)
		}
	case *exp == "list":
		fmt.Fprintln(stdout, "available experiments:")
		for _, n := range experiments.Names() {
			fmt.Fprintln(stdout, "  ", n)
		}
		fmt.Fprintln(stdout, "\nworkloads:", strings.Join(workloads.AppNames(), ", "))
		fmt.Fprintln(stdout, "cells (-app) also run: phased, bigtable, sparse, trace:<file>")
		return 0
	default:
		names := strings.Split(*exp, ",")
		if *exp == "all" {
			names = experiments.Names()
		}
		for _, name := range names {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			if _, ok := experiments.Registry[name]; !ok {
				fmt.Fprintf(stderr, "pccsim: unknown experiment %q; available:\n", name)
				for _, n := range experiments.Names() {
					fmt.Fprintln(stderr, "  ", n)
				}
				return 2
			}
			selected = append(selected, name)
		}
	}

	if *pprofAddr != "" {
		addr, stop, err := obs.StartPprof(*pprofAddr)
		if err != nil {
			fmt.Fprintf(stderr, "pccsim: -pprof: %v\n", err)
			return 1
		}
		defer stop()
		fmt.Fprintf(stdout, "(pprof listening on http://%s/debug/pprof/)\n", addr)
	}

	// -audit implies full observability: metrics registry and event sink,
	// so a clean run also proves the instrumentation produces data.
	var sink *obs.Sink
	if *audit || *events != "" {
		o.Obs = obs.NewRegistry()
		sink = obs.NewSink(64 * obs.DefaultEventLogSize)
		o.EventSink = sink
		o.Audit = *audit
	}

	if mode == modeCell || mode == modeChar {
		if err := experiments.RunCell(o, cell); err != nil {
			fmt.Fprintf(stderr, "pccsim: %s: %v\n", cell.App, err)
			return 1
		}
	}
	for _, name := range selected {
		start := time.Now()
		if err := experiments.Run(name, o); err != nil {
			fmt.Fprintf(stderr, "pccsim: %s: %v\n", name, err)
			return 1
		}
		fmt.Fprintf(stdout, "[%s completed in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
	}

	if *events != "" {
		f, err := os.Create(*events)
		if err != nil {
			fmt.Fprintf(stderr, "pccsim: -events: %v\n", err)
			return 1
		}
		werr := sink.WriteText(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fmt.Fprintf(stderr, "pccsim: -events: %v\n", werr)
			return 1
		}
		fmt.Fprintf(stdout, "(wrote %d events to %s)\n", sink.Total(), *events)
	}
	if *audit {
		fmt.Fprintf(stdout, "audit: 0 invariant violations (checked every policy tick and end of run)\n")
		fmt.Fprintf(stdout, "metrics snapshot (%d events traced):\n%s\n", sink.Total(), o.Obs.Snapshot().JSON())
	}
	return 0
}

// gibBytes converts a -phys value in GiB to bytes. A value that is not a
// positive number of bytes below 2^64 maps to 0, which validation refuses.
func gibBytes(gib float64) uint64 {
	if b := gib * (1 << 30); b > 0 && b < math.MaxUint64 {
		return uint64(b)
	}
	return 0
}
