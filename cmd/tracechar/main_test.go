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
