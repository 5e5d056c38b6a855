package main

import (
	"os"
	"path/filepath"
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
// must exit 2 before anything runs — empty stdout — with a stderr message
// naming the offending flag and no panic (no goroutine dump).
func TestRefusedInputs(t *testing.T) {
	for _, tc := range []struct {
		args []string
		flag string
	}{
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
	} {
		var out, errOut strings.Builder
		code := run(tc.args, &out, &errOut)
		if code != 2 {
			t.Errorf("%v: exit %d, want 2 (stderr: %s)", tc.args, code, errOut.String())
		}
		if !strings.Contains(errOut.String(), tc.flag) {
			t.Errorf("%v: stderr does not name %s:\n%s", tc.args, tc.flag, errOut.String())
		}
		if strings.Contains(errOut.String(), "goroutine") {
			t.Errorf("%v: panicked:\n%s", tc.args, errOut.String())
		}
		if out.Len() != 0 {
			t.Errorf("%v: ran before refusing:\n%s", tc.args, out.String())
		}
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
