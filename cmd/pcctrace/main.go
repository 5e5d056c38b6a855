// Command pcctrace drives the paper's two-step evaluation methodology (§4)
// as a standalone tool:
//
//	pcctrace -mode record -app BFS -out bfs_cands.jsonl
//	pcctrace -mode replay -app BFS -in bfs_cands.jsonl
//	pcctrace -mode blockstats -app mcf -accesses 200000
//
// Record runs the live TLB+PCC simulation with the OS promotion engine and
// writes every promotion (region + simulated timestamp) to a JSON-lines
// candidate trace. Replay runs the same workload on a machine WITHOUT PCC
// hardware, performing the recorded promotions at the recorded execution
// points — the analogue of the paper's real-system step consuming the
// offline Pin-simulation trace.
//
// Blockstats records the workload's access stream into the columnar block
// format the trace cache uses and dumps its encoded shape: block count,
// bytes per access, and the delta width histogram.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"pccsim/internal/ctrace"
	"pccsim/internal/ospolicy"
	"pccsim/internal/trace"
	"pccsim/internal/vmm"
	"pccsim/internal/workloads"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable body of the command: it parses args, executes the
// selected mode, writes human output to stdout and errors to stderr, and
// returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pcctrace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		mode     = fs.String("mode", "record", "record | replay | blockstats")
		app      = fs.String("app", "BFS", "workload name")
		dataset  = fs.String("dataset", "kron", "graph dataset")
		scale    = fs.Int("scale", 0, "graph scale")
		sorted   = fs.Bool("sorted", false, "degree-based grouping")
		out      = fs.String("out", "candidates.jsonl", "trace output path (record)")
		in       = fs.String("in", "candidates.jsonl", "trace input path (replay)")
		interval = fs.Uint64("interval", 2_000_000, "promotion interval in accesses (replay ticks every interval/100, so at least 100)")
		budget   = fs.Float64("budget", 0, "huge budget, % of footprint in [0,100] (record; 0 and 100 = unlimited)")
		accCap   = fs.Uint64("accesses", 0, "cap the stream length (blockstats; 0 = full stream)")
		size     = fs.Float64("sizescale", 0, "synthetic footprint scale, finite and >= 0 (0 = app default)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	fail := func(err error) int {
		fmt.Fprintln(stderr, "pcctrace:", err)
		return 1
	}
	// Every flag is checked before the workload is built, so a bad value
	// costs nothing and exits 2 like a flag parse error.
	refuse := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "pcctrace: "+format+"\n", args...)
		return 2
	}
	spec := workloads.Spec{
		Name: *app, Dataset: workloads.GraphDataset(*dataset), Scale: *scale, Sorted: *sorted,
		SizeScale: *size, Accesses: *accCap,
	}
	if err := spec.Validate(); err != nil {
		return refuse("%v", err)
	}
	cfg := vmm.DefaultConfig()
	switch *mode {
	case "record":
		if !(*budget >= 0 && *budget <= 100) {
			return refuse("-budget: %v is not a percentage in [0,100]", *budget)
		}
		cfg.PromotionInterval = *interval
	case "replay":
		// The replayed system ticks 100 times as often as the recorded one,
		// so recorded promotions land close to their recorded instants.
		if *interval < 100 {
			return refuse("-interval %d: replay ticks every interval/100 accesses, so it must be at least 100", *interval)
		}
		cfg.EnablePCC = false // the replayed system has no PCC hardware
		cfg.PromotionInterval = *interval / 100
	case "blockstats":
	default:
		return refuse("-mode %q: want record, replay or blockstats", *mode)
	}
	if err := cfg.Validate(); err != nil {
		return refuse("-interval: %v", err)
	}

	wl, err := workloads.Build(spec)
	if err != nil {
		return fail(err)
	}

	switch *mode {
	case "record":
		engine := ospolicy.NewPCCEngine(ospolicy.DefaultPCCEngineConfig())
		m := vmm.NewMachine(cfg, engine)
		p := m.AddProcess(wl.Name(), wl.Ranges(), wl.BaseCPA())
		if *budget > 0 && *budget < 100 {
			p.MaxHugeBytes = uint64(*budget / 100 * float64(wl.Footprint()))
		}
		engine.Bind(0, p)
		res := m.Run(&vmm.Job{Proc: p, Stream: wl.Stream(), Cores: []int{0}})
		tr := ctrace.FromMachine(m)
		if err := tr.Save(*out); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "recorded %d candidate promotions to %s\n", len(tr.Events), *out)
		fmt.Fprintf(stdout, "live run: cycles=%.4g PTW=%.3f%% huge=%d\n",
			res.Cycles, 100*res.PTWRate, res.HugePages2M)

	case "replay":
		tr, err := ctrace.Load(*in)
		if err != nil {
			return fail(err)
		}
		replay := ctrace.NewReplayPolicy(tr)
		m := vmm.NewMachine(cfg, replay)
		p := m.AddProcess(wl.Name(), wl.Ranges(), wl.BaseCPA())
		res := m.Run(&vmm.Job{Proc: p, Stream: wl.Stream(), Cores: []int{0}})
		fmt.Fprintf(stdout, "replayed %d of %d events from %s\n",
			len(tr.Events)-replay.Remaining(), len(tr.Events), *in)
		fmt.Fprintf(stdout, "replay run: cycles=%.4g PTW=%.3f%% huge=%d\n",
			res.Cycles, 100*res.PTWRate, res.HugePages2M)

	case "blockstats":
		st := wl.Stream()
		if *accCap > 0 {
			st = trace.Limit(st, *accCap)
		}
		rec := trace.RecordBlocks(st, 0)
		workloads.CloseStream(st)
		fmt.Fprintf(stdout, "%s: %s\n", wl.Name(), rec.Stats())
	}
	return 0
}
