package main

import (
	"bytes"
	"regexp"
	"strings"
	"testing"
)

// TestSummaryOutput: the default characterization prints the header, the
// three class lines, and (without -summary) the TSV table.
func TestSummaryOutput(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-app", "BFS", "-scale", "10", "-summary"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	s := out.String()
	if !regexp.MustCompile(`(?m)^# app=BFS accesses=\d+ pages=\d+ threshold=\d+$`).MatchString(s) {
		t.Errorf("missing header:\n%s", s)
	}
	for _, class := range []string{"TLB-friendly", "HUB", "low-reuse"} {
		if !strings.Contains(s, "# class "+class) {
			t.Errorf("missing class line %q:\n%s", class, s)
		}
	}
	if strings.Contains(s, "page\tdist4k") {
		t.Error("-summary must suppress the TSV table")
	}
}

// TestTSVTable: without -summary the scatter table follows the headers.
func TestTSVTable(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-app", "BFS", "-scale", "10", "-max", "50"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	s := out.String()
	if !strings.Contains(s, "page\tdist4k\tdist2m\taccesses\tclass") {
		t.Fatalf("missing TSV header:\n%.400s", s)
	}
	row := regexp.MustCompile(`(?m)^\d+\t\d+\.\d\t\d+\.\d\t\d+\t\S+$`)
	if !row.MatchString(s) {
		t.Errorf("no TSV data rows:\n%.400s", s)
	}
}

// TestUnknownAppFails: an unknown workload reports the error and exits 1.
func TestUnknownAppFails(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-app", "nope"}, &out, &errb); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(errb.String(), "unknown application") {
		t.Errorf("stderr: %s", errb.String())
	}
}

// TestRefusedInputs: every input below must exit 2 before the workload is
// built or anything runs — empty stdout — with a stderr message naming the
// offending flag and no panic (no goroutine dump).
func TestRefusedInputs(t *testing.T) {
	for _, tc := range []struct {
		args []string
		flag string
	}{
		{[]string{"-max", "-3"}, "-max"},
		{[]string{"-scale", "31"}, "-scale"},
		{[]string{"-scale", "-1"}, "-scale"},
		{[]string{"-dataset", "bogus"}, "-dataset"},
	} {
		// A small workload first: the case's own flags come last and win.
		args := append([]string{"-app", "BFS", "-scale", "10", "-summary"}, tc.args...)
		var out, errb bytes.Buffer
		code := run(args, &out, &errb)
		if code != 2 {
			t.Errorf("%v: exit %d, want 2 (stderr: %s)", tc.args, code, errb.String())
		}
		if !strings.Contains(errb.String(), tc.flag) {
			t.Errorf("%v: stderr does not name %s:\n%s", tc.args, tc.flag, errb.String())
		}
		if strings.Contains(errb.String(), "goroutine") {
			t.Errorf("%v: panicked:\n%s", tc.args, errb.String())
		}
		if out.Len() != 0 {
			t.Errorf("%v: ran before refusing:\n%s", tc.args, out.String())
		}
	}
}
