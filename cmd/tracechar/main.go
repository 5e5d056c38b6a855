// Command tracechar runs the Fig. 2 page reuse-distance characterization on
// any workload and emits the per-page scatter data (4KB reuse distance vs
// 2MB-region reuse distance, with the TLB-friendly / HUB / low-reuse class),
// in TSV form suitable for plotting.
//
//	tracechar -app BFS -scale 17 > bfs_reuse.tsv
//	tracechar -app canneal -max 5000
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"

	"pccsim/internal/trace"
	"pccsim/internal/workloads"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable body of the command: it parses args, writes the TSV
// to stdout and errors to stderr, and returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tracechar", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		app     = fs.String("app", "BFS", "workload name")
		dataset = fs.String("dataset", "kron", "graph dataset (kron|social|web)")
		scale   = fs.Int("scale", 0, "graph scale (2^scale vertices)")
		sorted  = fs.Bool("sorted", false, "apply degree-based grouping")
		maxPts  = fs.Int("max", 0, "max scatter points (0 = all pages)")
		summary = fs.Bool("summary", false, "print class summary only")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// Every flag is checked before the workload is built, so a bad value
	// costs nothing and exits 2 like a flag parse error.
	refuse := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "tracechar: "+format+"\n", args...)
		return 2
	}
	spec := workloads.Spec{
		Name:     *app,
		Dataset:  workloads.GraphDataset(*dataset),
		Scale:    *scale,
		Sorted:   *sorted,
		SkipInit: true, // characterize the steady-state kernel only
	}
	if err := spec.Validate(); err != nil {
		return refuse("%v", err)
	}
	if *maxPts < 0 {
		return refuse("-max must be >= 0 (0 = all pages), got %d", *maxPts)
	}

	wl, err := workloads.Build(spec)
	if err != nil {
		fmt.Fprintln(stderr, "tracechar:", err)
		return 1
	}

	st := wl.Stream()
	an := trace.NewReuseAnalyzer()
	n := an.Drain(st)
	workloads.CloseStream(st)
	results := an.Results()
	sum := trace.Summarize(results)

	w := bufio.NewWriter(stdout)
	defer w.Flush()

	fmt.Fprintf(w, "# app=%s accesses=%d pages=%d threshold=%d\n",
		wl.Name(), n, len(results), trace.ClassifyThreshold)
	for _, c := range []trace.PageClass{trace.TLBFriendly, trace.HUB, trace.LowReuse} {
		fmt.Fprintf(w, "# class %-14s pages=%-10d accesses=%d\n", c, sum.Pages[c], sum.Accesses[c])
	}
	if *summary {
		return 0
	}
	stride := 1
	if *maxPts > 0 && len(results) > *maxPts {
		stride = len(results) / *maxPts
	}
	fmt.Fprintln(w, "page\tdist4k\tdist2m\taccesses\tclass")
	for i := 0; i < len(results); i += stride {
		r := results[i]
		fmt.Fprintf(w, "%d\t%.1f\t%.1f\t%d\t%s\n", r.Page, r.Dist4K, r.Dist2M, r.Accesses, r.Class)
	}
	return 0
}
