package main

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

func TestUnknownExperimentExitsNonZeroListingChoices(t *testing.T) {
	var out, errOut strings.Builder
	code := run([]string{"-exp", "fig5,nope"}, &out, &errOut)
	if code == 0 {
		t.Fatal("unknown experiment must exit non-zero")
	}
	if !strings.Contains(errOut.String(), `unknown experiment "nope"`) {
		t.Errorf("stderr must name the bad experiment:\n%s", errOut.String())
	}
	for _, want := range []string{"fig1", "fig5", "summary"} {
		if !strings.Contains(errOut.String(), want) {
			t.Errorf("stderr must list available experiments (missing %q)", want)
		}
	}
	if out.Len() != 0 {
		t.Errorf("no experiment may run before validation:\n%s", out.String())
	}
}

func TestNegativeWorkersRejectedAtParse(t *testing.T) {
	var out, errOut strings.Builder
	code := run([]string{"-exp", "fig5", "-quick", "-workers", "-1"}, &out, &errOut)
	if code == 0 {
		t.Fatal("-workers -1 must exit non-zero")
	}
	if !strings.Contains(errOut.String(), "-workers must be >= 0") {
		t.Errorf("stderr must explain the -workers constraint:\n%s", errOut.String())
	}
	if out.Len() != 0 {
		t.Errorf("no experiment may run with invalid -workers:\n%s", out.String())
	}
}

func TestNegativeTraceCacheRejectedAtParse(t *testing.T) {
	var out, errOut strings.Builder
	code := run([]string{"-exp", "fig5", "-quick", "-tracecache", "-1"}, &out, &errOut)
	if code == 0 {
		t.Fatal("-tracecache -1 must exit non-zero")
	}
	if !strings.Contains(errOut.String(), "-tracecache must be >= 0") {
		t.Errorf("stderr must explain the -tracecache constraint:\n%s", errOut.String())
	}
	if out.Len() != 0 {
		t.Errorf("no experiment may run with invalid -tracecache:\n%s", out.String())
	}
}

func TestOutOfRangeScaleRejectedAtParse(t *testing.T) {
	for _, scale := range []string{"-3", "31"} {
		var out, errOut strings.Builder
		if code := run([]string{"-exp", "fig5", "-quick", "-scale", scale}, &out, &errOut); code != 2 {
			t.Fatalf("-scale %s: exit %d, want 2 (stderr: %s)", scale, code, errOut.String())
		}
		if !strings.Contains(errOut.String(), "-scale must be 1..30") {
			t.Errorf("-scale %s: stderr must explain the range:\n%s", scale, errOut.String())
		}
		if out.Len() != 0 {
			t.Errorf("-scale %s: no experiment may run:\n%s", scale, out.String())
		}
	}
}

func TestUndefinedFlagExitsNonZero(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-no-such-flag"}, &out, &errOut); code == 0 {
		t.Fatal("undefined flag must exit non-zero")
	}
}

func TestListIsTheDefaultAndSucceeds(t *testing.T) {
	var out, errOut strings.Builder
	if code := run(nil, &out, &errOut); code != 0 {
		t.Fatalf("bare invocation must list and exit 0, got %d (stderr: %s)", code, errOut.String())
	}
	for _, want := range []string{"available experiments:", "fig5", "workloads:"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("list output missing %q:\n%s", want, out.String())
		}
	}
}

func TestCheckpointWithoutServeRejected(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-checkpoint", "/tmp/x.json"}, &out, &errOut); code == 0 {
		t.Fatal("-checkpoint without -serve must exit non-zero")
	}
	if !strings.Contains(errOut.String(), "-checkpoint requires -serve") {
		t.Errorf("stderr must explain the -checkpoint constraint:\n%s", errOut.String())
	}
}

func TestRestoreWithoutCheckpointRejected(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-serve", "localhost:0", "-restore"}, &out, &errOut); code == 0 {
		t.Fatal("-restore without -checkpoint must exit non-zero")
	}
	if !strings.Contains(errOut.String(), "-restore requires -checkpoint") {
		t.Errorf("stderr must explain the -restore constraint:\n%s", errOut.String())
	}
}

// TestServeRefusesCorruptCheckpoint pins that a daemon asked to resume from
// a damaged grid file fails loudly at startup instead of serving with the
// grid silently dropped.
func TestServeRefusesCorruptCheckpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "grid.json")
	if err := os.WriteFile(path, []byte("{broken"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errOut strings.Builder
	if code := run([]string{"-serve", "localhost:0", "-checkpoint", path, "-restore"}, &out, &errOut); code != 1 {
		t.Fatalf("corrupt checkpoint must exit 1, got %d (stderr: %s)", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "corrupt checkpoint") {
		t.Errorf("stderr must name the corrupt checkpoint:\n%s", errOut.String())
	}
}

// TestRefusedInputs is the front door's negative path: every input below
// must be refused before anything runs, as expectRefused checks, and no
// refused -record may write its file. The rows are grouped by the mode they
// refuse in, one subtest each.
func TestRefusedInputs(t *testing.T) {
	dir := t.TempDir()
	garbage := filepath.Join(dir, "garbage.jsonl")
	if err := os.WriteFile(garbage, []byte("{not a trace"), 0o644); err != nil {
		t.Fatal(err)
	}
	rec := filepath.Join(dir, "rec.jsonl")
	type refusal struct {
		args []string
		flag string
	}
	for _, group := range []struct {
		name  string
		cases []refusal
	}{
		{"flags", []refusal{
			{[]string{"-app", "mcf", "-pcc", "0"}, "-pcc"},
			{[]string{"-app", "mcf", "-phys", "0"}, "-phys"},
			{[]string{"-app", "mcf", "-phys", "0.3"}, "-phys"},
			{[]string{"-app", "mcf", "-frag", "1.5"}, "-frag"},
			{[]string{"-app", "mcf", "-frag", "NaN"}, "-frag"},
			{[]string{"-app", "mcf", "-threads", "-2"}, "-threads"},
			{[]string{"-app", "mcf", "-threads", "0"}, "-threads"},
			{[]string{"-app", "mcf", "-budgets", "-5"}, "-budgets"},
			{[]string{"-app", "mcf", "-budgets", "150"}, "-budgets"},
			{[]string{"-app", "mcf", "-budgets", "NaN"}, "-budgets"},
			{[]string{"-app", "mcf", "-budgets", "4,x"}, "-budgets"},
			{[]string{"-app", "mcf", "-policy", "nope"}, "-policy"},
			{[]string{"-app", "mcf", "-numa", "bogus"}, "-numa"},
			{[]string{"-app", "mcf", "-churn", "-1"}, "-churn"},
			{[]string{"-app", "nope"}, "-app"},
			{[]string{"-app", "trace:/nonexistent"}, "-app"},
			{[]string{"-app", "mcf", "-exp", "fig5"}, "-exp"},
			{[]string{"-app", "mcf", "-serve", ":0"}, "-app"},
			{[]string{"-app", "mcf", "-tenants", "2"}, "-tenants"},
			{[]string{"-policy", "pcc"}, "-policy"},
			{[]string{"-exp", "fig1", "-frag", "0.5"}, "-frag"},
			{[]string{"-serve", ":0", "-audit"}, "-audit"},
			{[]string{"-quick", "-full"}, "-full"},
			{[]string{"-exp", "fig1", "-tenants", "5"}, "-tenants"},
			{[]string{"-exp", "fig1", "-quick", "-tracecache", "8796093022208"}, "-tracecache"},
			{[]string{"-exp", "fig1", "-quick", "-tracecache", "17592186044416"}, "-tracecache"},
			{[]string{"-exp", "fig1", "-quota-skew", "lopsided"}, "-quota-skew"},
		}},
		// A recording cell refuses a budget, dataset or scale it cannot
		// run, and a replay cell a trace it cannot load.
		{"record-replay", []refusal{
			{[]string{"-app", "BFS", "-record", rec, "-budgets", "0,4"}, "-record"},
			{[]string{"-app", "BFS", "-record", rec, "-budgets", "-5"}, "-budgets"},
			{[]string{"-app", "BFS", "-record", rec, "-budgets", "NaN"}, "-budgets"},
			{[]string{"-app", "BFS", "-record", rec, "-budgets", "150"}, "-budgets"},
			{[]string{"-app", "BFS", "-record", rec, "-dataset", "bogus"}, "-dataset"},
			{[]string{"-app", "BFS", "-record", rec, "-scale", "31"}, "-scale"},
			{[]string{"-app", "BFS", "-record", rec, "-scale", "-1"}, "-scale"},
			{[]string{"-exp", "fig1", "-record", rec}, "-record"},
			{[]string{"-app", "BFS", "-policy", "replay:/nonexistent"}, "-policy"},
			{[]string{"-app", "BFS", "-policy", "replay:"}, "-policy"},
			{[]string{"-app", "BFS", "-policy", "replay:" + garbage}, "-policy"},
			{[]string{"-app", "BFS", "-policy", "replay:" + garbage, "-interval", "50"}, "-interval"},
		}},
		// -char needs a cell, refuses the flags only a simulation reads, and
		// checks the stream's own flags as a cell does.
		{"char", []refusal{
			{[]string{"-char"}, "-char"},
			{[]string{"-app", "BFS", "-char", "-policy", "hawkeye"}, "-policy"},
			{[]string{"-app", "BFS", "-char", "-budgets", "4"}, "-budgets"},
			{[]string{"-app", "BFS", "-char", "-record", rec}, "-record"},
			{[]string{"-app", "BFS", "-char", "-audit"}, "-audit"},
			{[]string{"-app", "BFS", "-char", "-interval", "50"}, "-interval"},
			{[]string{"-app", "BFS", "-char", "-seed", "3"}, "-seed"},
			{[]string{"-app", "BFS", "-char", "-workers", "2"}, "-workers"},
			{[]string{"-app", "BFS", "-char", "-tracecache", "0"}, "-tracecache"},
			{[]string{"-app", "BFS", "-char", "-dataset", "bogus"}, "-dataset"},
			{[]string{"-app", "BFS", "-char", "-scale", "31"}, "-scale"},
			{[]string{"-app", "BFS", "-char", "-scale", "-1"}, "-scale"},
		}},
	} {
		t.Run(group.name, func(t *testing.T) {
			for _, tc := range group.cases {
				expectRefused(t, tc.args, tc.flag)
			}
		})
	}
	if _, err := os.Stat(rec); !os.IsNotExist(err) {
		t.Errorf("a refused -record wrote its file (stat: %v)", err)
	}
}

// expectRefused runs args and requires exit 2 before anything runs — empty
// stdout — with a stderr message naming flag and no panic (no goroutine
// dump). It returns stderr.
func expectRefused(t *testing.T, args []string, flag string) string {
	t.Helper()
	var out, errOut strings.Builder
	code := run(args, &out, &errOut)
	if code != 2 {
		t.Errorf("%v: exit %d, want 2 (stderr: %s)", args, code, errOut.String())
	}
	if !strings.Contains(errOut.String(), flag) {
		t.Errorf("%v: stderr does not name %s:\n%s", args, flag, errOut.String())
	}
	if strings.Contains(errOut.String(), "goroutine") {
		t.Errorf("%v: panicked:\n%s", args, errOut.String())
	}
	if out.Len() != 0 {
		t.Errorf("%v: ran before refusing:\n%s", args, out.String())
	}
	return errOut.String()
}

// TestFlagParseErrorsExit2: an undefined flag or a value its flag cannot
// parse exits 2 without running anything.
func TestFlagParseErrorsExit2(t *testing.T) {
	for _, args := range [][]string{
		{"-no-such-flag"},
		{"-app", "BFS", "-scale", "10", "-interval", "x"},
		{"-app", "BFS", "-scale", "10", "-char=maybe"},
		{"-app", "BFS", "-scale", "ten"},
	} {
		var out, errOut strings.Builder
		if code := run(args, &out, &errOut); code != 2 {
			t.Errorf("%v: exit %d, want 2 (stderr: %s)", args, code, errOut.String())
		}
		if out.Len() != 0 {
			t.Errorf("%v: ran before refusing:\n%s", args, out.String())
		}
	}
}

// TestUnknownPolicyFails: the policy value selects a cell's mode (a live
// policy or replay:<file>), so a bad one is refused with exit 2 before the
// workload is built, naming the value and listing the choices.
func TestUnknownPolicyFails(t *testing.T) {
	for _, bad := range []string{"bogus", "replay"} {
		msg := expectRefused(t, []string{"-app", "mcf", "-policy", bad}, fmt.Sprintf("-policy %q", bad))
		if !strings.Contains(msg, "replay:<file>") {
			t.Errorf("-policy %s: stderr does not list replay:<file>:\n%s", bad, msg)
		}
	}
}

// TestUnrunnableIntervalRefused: an interval the machine cannot run is
// refused with exit 2 before anything runs, not a panic. A replay cell ticks
// every interval/100 accesses, so it needs at least 100; a negative interval
// does not parse; zero keeps the default interval and runs.
func TestUnrunnableIntervalRefused(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cands.jsonl")
	cell := []string{"-app", "BFS", "-scale", "10", "-phys", "4"}
	var out, errb strings.Builder
	if code := run(append(cell, "-interval", "20000", "-record", path), &out, &errb); code != 0 {
		t.Fatalf("record: exit %d, stderr: %s", code, errb.String())
	}
	expectRefused(t, append(cell, "-interval", "99", "-policy", "replay:"+path), "-interval 99")
	expectRefused(t, append(cell, "-interval", "1", "-policy", "replay:"+path), "-interval 1")
	out.Reset()
	if code := run(append(cell, "-interval", "100", "-policy", "replay:"+path), &out, &errb); code != 0 ||
		!strings.Contains(out.String(), "replayed 4 of 4 events") {
		t.Errorf("replay at -interval 100: exit %d, stderr %s, stdout:\n%s", code, errb.String(), out.String())
	}

	fresh := filepath.Join(dir, "fresh.jsonl")
	expectRefused(t, append(cell, "-interval", "-1", "-record", fresh), "-interval")
	if _, err := os.Stat(fresh); !os.IsNotExist(err) {
		t.Errorf("a refused -record wrote its file (stat: %v)", err)
	}
	out.Reset()
	if code := run(append(cell, "-interval", "0", "-record", fresh), &out, &errb); code != 0 ||
		!strings.Contains(out.String(), "recorded 0 candidate promotions to "+fresh) {
		t.Errorf("-interval 0: exit %d, stderr %s, stdout:\n%s", code, errb.String(), out.String())
	}
}

// TestCellRuns drives one small cell end to end: one counter block per
// budget, in budget order.
func TestCellRuns(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-app", "mcf", "-quick", "-accesses", "50000", "-budgets", "0,25"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d (stderr: %s)", code, errOut.String())
	}
	s := out.String()
	if strings.Count(s, "workload       mcf") != 2 || strings.Index(s, "budget=0%") > strings.Index(s, "budget=25%") {
		t.Errorf("want one block per budget, in order:\n%s", s)
	}
}

// TestRecordReplayRoundTrip runs the paper's two-step method as a cell pair:
// a PCC cell records its candidate trace, and a replay cell on a machine
// without PCC fires every recorded event and lands on the same counters.
func TestRecordReplayRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cands.jsonl")
	cell := []string{"-app", "BFS", "-scale", "10", "-interval", "20000", "-phys", "4"}
	var rec, errb strings.Builder
	if code := run(append(cell, "-record", path), &rec, &errb); code != 0 {
		t.Fatalf("record: exit %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(rec.String(), "recorded 4 candidate promotions to "+path) {
		t.Fatalf("record output:\n%s", rec.String())
	}
	var rep strings.Builder
	if code := run(append(cell, "-policy", "replay:"+path, "-audit"), &rep, &errb); code != 0 {
		t.Fatalf("replay: exit %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(rep.String(), "replayed 4 of 4 events") ||
		!strings.Contains(rep.String(), "audit: 0 invariant violations") {
		t.Fatalf("replay output:\n%s", rep.String())
	}
	counters := regexp.MustCompile(`(?m)^(accesses|cycles|PTW rate|huge pages) .*$`)
	if got, want := counters.FindAllString(rep.String(), -1), counters.FindAllString(rec.String(), -1); len(want) != 4 ||
		strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("replay counters %q, recorded run %q", got, want)
	}
}

// charOutput runs a -char cell and returns its stdout.
func charOutput(t *testing.T, args ...string) string {
	t.Helper()
	var out, errb strings.Builder
	if code := run(append(args, "-char"), &out, &errb); code != 0 {
		t.Fatalf("%v -char: exit %d, stderr: %s", args, code, errb.String())
	}
	return out.String()
}

// TestCharSummary: -char opens with the steady-state reuse analysis, the
// header then the three class lines, in that order and ahead of the block
// shape line and the TSV.
func TestCharSummary(t *testing.T) {
	s := charOutput(t, "-app", "BFS", "-scale", "10")
	at := -1
	for _, re := range []string{
		`(?m)^# app=BFS accesses=\d+ pages=\d+ threshold=1024$`,
		`(?m)^# class TLB-friendly +pages=\d+ +accesses=\d+$`,
		`(?m)^# class HUB +pages=\d+ +accesses=\d+$`,
		`(?m)^# class low-reuse +pages=\d+ +accesses=\d+$`,
		`(?m)^# BFS: blocks=`,
		`(?m)^page\tdist4k\tdist2m\taccesses\tclass$`,
	} {
		loc := regexp.MustCompile(re).FindStringIndex(s)
		if loc == nil || loc[0] < at {
			t.Fatalf("missing or out of order: %s\n%.600s", re, s)
		}
		at = loc[0]
	}
}

// TestAccessesCountsAfterInitPass pins what -accesses sets: the accesses a
// synthetic app streams after its initialization pass. mcf's pass is
// 704,512 accesses, and -char keeps a synthetic app's pass in both its
// reuse header and its block line.
func TestAccessesCountsAfterInitPass(t *testing.T) {
	s := charOutput(t, "-app", "mcf", "-accesses", "200000")
	for _, want := range []string{"# app=mcf accesses=904512 ", "# mcf: blocks=221 accesses=904512 "} {
		if !strings.Contains(s, want) {
			t.Errorf("-app mcf -accesses 200000 -char lacks %q:\n%.600s", want, s)
		}
	}
}

// TestCharBlockStats: -char reports the columnar block shape of the cell's
// full stream on one # line, and a graph kernel's stream takes the
// multi-base layout.
func TestCharBlockStats(t *testing.T) {
	s := charOutput(t, "-app", "mcf", "-quick", "-accesses", "50000")
	shape := regexp.MustCompile(`(?m)^# mcf: blocks=\d+ accesses=\d+ bytes=\d+ bytes/access=\d+\.\d+ single-thread-blocks=\d+ write-blocks=\d+ multi-base-blocks=\d+ multi-base-deltas=\d+( delta\dB=\d+)*$`)
	if !shape.MatchString(s) {
		t.Errorf("mcf: no block shape line:\n%.600s", s)
	}
	s = charOutput(t, "-app", "BFS", "-scale", "10")
	if !regexp.MustCompile(`(?m)^# BFS: blocks=\d+ .*multi-base-blocks=[1-9]`).MatchString(s) {
		t.Errorf("BFS recording reports no multi-base block:\n%.600s", s)
	}
}

// TestCharTSVTable: after the # lines, -char prints the TSV header and one
// row per page the header counts.
func TestCharTSVTable(t *testing.T) {
	s := charOutput(t, "-app", "BFS", "-scale", "10")
	head := strings.Index(s, "page\tdist4k\tdist2m\taccesses\tclass\n")
	if head < 0 || strings.Contains(s[head:], "\n#") {
		t.Fatalf("missing TSV header, or # lines after it:\n%.600s", s)
	}
	pages := regexp.MustCompile(`pages=(\d+) threshold`).FindStringSubmatch(s)
	rows := regexp.MustCompile(`(?m)^\d+\t\d+\.\d\t\d+\.\d\t\d+\t\S+$`).FindAllString(s[head:], -1)
	if pages == nil || pages[1] == "0" || pages[1] != strconv.Itoa(len(rows)) {
		t.Errorf("header counts %v pages, TSV has %d rows", pages, len(rows))
	}
}

// TestCharUnknownAppFails: an unknown workload is refused with exit 2 before
// anything runs, and stderr says the application is unknown.
func TestCharUnknownAppFails(t *testing.T) {
	msg := expectRefused(t, []string{"-app", "nope", "-char"}, "-app")
	if !strings.Contains(msg, `unknown application "nope"`) {
		t.Errorf("stderr: %s", msg)
	}
}
