package main

import (
	"bytes"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestBlockstatsMode: -mode blockstats must record the capped stream into
// columnar blocks and report the encoded shape on one line.
func TestBlockstatsMode(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{
		"-mode", "blockstats", "-app", "mcf", "-accesses", "50000", "-sizescale", "0.05",
	}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	got := strings.TrimSpace(out.String())
	re := regexp.MustCompile(`^mcf: blocks=\d+ accesses=50000 bytes=\d+ bytes/access=\d+\.\d+ single-thread-blocks=\d+ write-blocks=\d+ multi-base-blocks=\d+ multi-base-deltas=\d+( delta\dB=\d+)*$`)
	if !re.MatchString(got) {
		t.Errorf("blockstats output shape mismatch:\n%s", got)
	}

	// A graph kernel's stream takes the multi-base layout.
	out.Reset()
	if code := run([]string{"-mode", "blockstats", "-app", "BFS", "-scale", "10"}, &out, &errb); code != 0 {
		t.Fatalf("BFS: exit %d, stderr: %s", code, errb.String())
	}
	if !regexp.MustCompile(`multi-base-blocks=[1-9]`).MatchString(out.String()) {
		t.Errorf("BFS recording reports no multi-base block:\n%s", out.String())
	}
}

// TestRecordReplayRoundTrip: record writes a candidate trace and prints the
// live summary; replay consumes it and prints the replay summary.
func TestRecordReplayRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cands.jsonl")
	var out, errb bytes.Buffer
	code := run([]string{
		"-mode", "record", "-app", "mcf", "-sizescale", "0.05",
		"-interval", "100000", "-out", path,
	}, &out, &errb)
	if code != 0 {
		t.Fatalf("record: exit %d, stderr: %s", code, errb.String())
	}
	if !regexp.MustCompile(`recorded \d+ candidate promotions to `).MatchString(out.String()) ||
		!strings.Contains(out.String(), "live run: cycles=") {
		t.Errorf("record output shape mismatch:\n%s", out.String())
	}

	out.Reset()
	errb.Reset()
	code = run([]string{
		"-mode", "replay", "-app", "mcf", "-sizescale", "0.05",
		"-interval", "100000", "-in", path,
	}, &out, &errb)
	if code != 0 {
		t.Fatalf("replay: exit %d, stderr: %s", code, errb.String())
	}
	if !regexp.MustCompile(`replayed \d+ of \d+ events from `).MatchString(out.String()) ||
		!strings.Contains(out.String(), "replay run: cycles=") {
		t.Errorf("replay output shape mismatch:\n%s", out.String())
	}
}

// TestRefusedInputs: every input below must exit 2 before the workload is
// built or anything runs — empty stdout — with a stderr message naming the
// offending flag and no panic (no goroutine dump). TestUnknownModeFails
// covers -mode the same way.
func TestRefusedInputs(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		args []string
		flag string
	}{
		{[]string{"-mode", "record", "-budget", "-5"}, "-budget"},
		{[]string{"-mode", "record", "-budget", "NaN"}, "-budget"},
		{[]string{"-mode", "record", "-budget", "150"}, "-budget"},
		{[]string{"-mode", "replay", "-interval", "50"}, "-interval"},
		{[]string{"-mode", "replay", "-interval", "0"}, "-interval"},
		{[]string{"-mode", "blockstats", "-app", "mcf", "-sizescale", "-1"}, "-sizescale"},
		{[]string{"-mode", "blockstats", "-app", "mcf", "-sizescale", "NaN"}, "-sizescale"},
		{[]string{"-mode", "blockstats", "-dataset", "bogus"}, "-dataset"},
		{[]string{"-mode", "blockstats", "-scale", "31"}, "-scale"},
		{[]string{"-mode", "blockstats", "-scale", "-1"}, "-scale"},
	} {
		// Small workloads and scratch paths first: the case's own flags
		// come last and win.
		args := append([]string{"-scale", "10", "-accesses", "50000",
			"-out", filepath.Join(dir, "c.jsonl"), "-in", filepath.Join(dir, "c.jsonl")}, tc.args...)
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

// TestUnknownModeFails: a bad -mode is refused with exit 2 before the
// workload is built.
func TestUnknownModeFails(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-mode", "bogus", "-app", "mcf", "-sizescale", "0.05"}, &out, &errb); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(errb.String(), `-mode "bogus"`) || out.Len() != 0 {
		t.Errorf("stdout %q, stderr %q", out.String(), errb.String())
	}
}

// TestBadFlagFails: flag parse errors exit 2 without running anything.
func TestBadFlagFails(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-no-such-flag"}, &out, &errb); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}

// TestZeroIntervalRefused: a record interval the machine cannot run is
// refused with exit 2 before anything runs, not a panic.
func TestZeroIntervalRefused(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-mode", "record", "-app", "BFS", "-scale", "10", "-interval", "0",
		"-out", filepath.Join(t.TempDir(), "c.jsonl")}, &out, &errb)
	if code != 2 || !strings.Contains(errb.String(), "-interval") || out.Len() != 0 {
		t.Fatalf("exit %d, stdout %q, stderr %q", code, out.String(), errb.String())
	}
}
