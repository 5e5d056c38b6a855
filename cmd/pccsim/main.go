// Command pccsim regenerates the paper's tables and figures from the
// simulator. Each -exp value corresponds to one artifact of the evaluation
// (see DESIGN.md's experiment index):
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
// Daemon mode: -serve addr runs a long-lived HTTP server accepting
// experiment grids (POST /jobs) and streaming progress; with -checkpoint it
// saves completed work on SIGTERM and, restarted with -restore, finishes
// the pending grid. See internal/daemon.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
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
		accesses  = fs.Uint64("accesses", 0, "override synthetic app stream length")
		seed      = fs.Int64("seed", 0, "override fragmentation seed")
		plots     = fs.String("plots", "", "also write SVG figures into this directory")
		workers   = fs.Int("workers", 0, "parallel simulations per experiment (0 = GOMAXPROCS); output is identical at any setting")
		mshards   = fs.Int("machine-shards", 0, "goroutines one simulated machine may use for independent job groups (0/1 = serial); output is identical at any setting")
		traceMiB  = fs.Int64("tracecache", 512, "trace record/replay cache budget in MiB (0 disables); output is identical either way")
		audit     = fs.Bool("audit", false, "verify machine invariants every policy tick and print the merged metrics snapshot")
		events    = fs.String("events", "", "write the simulation event trace (promotions, PCC dumps, compactions, shootdowns) to this file")
		pprofAddr = fs.String("pprof", "", "serve Go pprof endpoints on this address (e.g. localhost:6060) while running")
		tenants   = fs.Int("tenants", 0, "restrict figtenant to this tenant count (0 = sweep 2 and 4)")
		churn     = fs.Int("churn-procs", 0, "cap on concurrent churn processes in figtenant's lifecycle cells (0 = default)")
		skew      = fs.String("quota-skew", "", "restrict figtenant's quota split: even or skewed (default: sweep both)")
		serveAddr = fs.String("serve", "", "run as a long-lived daemon serving the experiment HTTP API on this address (e.g. localhost:8080); -exp is ignored")
		ckptPath  = fs.String("checkpoint", "", "grid checkpoint file the daemon writes on SIGTERM/SIGINT (requires -serve)")
		restore   = fs.Bool("restore", false, "resume pending grid work from -checkpoint at startup (requires -serve and -checkpoint)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *workers < 0 {
		fmt.Fprintf(stderr, "pccsim: -workers must be >= 0, got %d\n", *workers)
		return 2
	}
	if *mshards < 0 {
		fmt.Fprintf(stderr, "pccsim: -machine-shards must be >= 0, got %d\n", *mshards)
		return 2
	}
	if *scale < 0 || *scale > workloads.MaxScale {
		fmt.Fprintf(stderr, "pccsim: -scale must be 1..%d (or 0 for each experiment's default), got %d\n", workloads.MaxScale, *scale)
		return 2
	}
	if *traceMiB < 0 {
		fmt.Fprintf(stderr, "pccsim: -tracecache must be >= 0 MiB, got %d\n", *traceMiB)
		return 2
	}
	if *tenants < 0 {
		fmt.Fprintf(stderr, "pccsim: -tenants must be >= 0, got %d\n", *tenants)
		return 2
	}
	if *churn < 0 {
		fmt.Fprintf(stderr, "pccsim: -churn-procs must be >= 0, got %d\n", *churn)
		return 2
	}
	if *skew != "" && *skew != "even" && *skew != "skewed" {
		fmt.Fprintf(stderr, "pccsim: -quota-skew must be \"even\" or \"skewed\", got %q\n", *skew)
		return 2
	}
	if *ckptPath != "" && *serveAddr == "" {
		fmt.Fprintln(stderr, "pccsim: -checkpoint requires -serve")
		return 2
	}
	if *restore && *ckptPath == "" {
		fmt.Fprintln(stderr, "pccsim: -restore requires -checkpoint")
		return 2
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
		o.MachineShards = *mshards
		if *traceMiB == 0 {
			o.TraceCache = -1 // disabled: always generate streams live
		} else {
			o.TraceCache = *traceMiB << 20
		}
		o.Tenants = *tenants
		o.ChurnProcs = *churn
		o.QuotaSkew = *skew
		return o
	}
	o := buildOptions(stdout)

	if *serveAddr != "" {
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

	if *exp == "list" {
		fmt.Fprintln(stdout, "available experiments:")
		for _, n := range experiments.Names() {
			fmt.Fprintln(stdout, "  ", n)
		}
		fmt.Fprintln(stdout, "\nworkloads:", strings.Join(workloads.AppNames(), ", "))
		return 0
	}

	names := strings.Split(*exp, ",")
	if *exp == "all" {
		names = experiments.Names()
	}
	// Validate every requested experiment before running any: a typo at the
	// end of a comma list must not waste the minutes the earlier entries
	// take.
	var selected []string
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
