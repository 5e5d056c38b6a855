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
		interval = fs.Uint64("interval", 2_000_000, "promotion interval (accesses)")
		budget   = fs.Float64("budget", 0, "huge budget %% of footprint (record)")
		accCap   = fs.Uint64("accesses", 0, "cap the stream length (blockstats; 0 = full stream)")
		size     = fs.Float64("sizescale", 0, "synthetic footprint scale (blockstats; 0 = app default)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	fail := func(err error) int {
		fmt.Fprintln(stderr, "pcctrace:", err)
		return 1
	}

	wl, err := workloads.Build(workloads.Spec{
		Name: *app, Dataset: workloads.GraphDataset(*dataset), Scale: *scale, Sorted: *sorted,
		SizeScale: *size, Accesses: *accCap,
	})
	if err != nil {
		return fail(err)
	}

	switch *mode {
	case "record":
		cfg := vmm.DefaultConfig()
		cfg.EnablePCC = true
		cfg.PromotionInterval = *interval
		if err := cfg.Validate(); err != nil {
			fmt.Fprintln(stderr, "pcctrace: -interval:", err)
			return 2
		}
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
		cfg := vmm.DefaultConfig()
		cfg.EnablePCC = false // the replayed system has no PCC hardware
		cfg.PromotionInterval = *interval / 100
		if cfg.PromotionInterval == 0 {
			cfg.PromotionInterval = 1000
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

	default:
		return fail(fmt.Errorf("unknown mode %q", *mode))
	}
	return 0
}
