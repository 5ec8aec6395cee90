package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestInvalidFlagsRejected covers the flag-validation contract: every
// malformed invocation exits 2 before any simulation starts, and prints a
// one-line usage hint alongside the specific complaint.
func TestInvalidFlagsRejected(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string // substring of the error line
	}{
		{"negative corrupt rate", []string{"-fault", "corrupt=-0.5"}, "must be in [0,1]"},
		{"rate above one", []string{"-fault", "stall=1.5"}, "must be in [0,1]"},
		{"NaN rate", []string{"-fault", "corrupt=NaN"}, "must be finite"},
		{"malformed spec element", []string{"-fault", "corrupt"}, "malformed spec"},
		{"unknown spec key", []string{"-fault", "warp=0.5"}, "unknown spec key"},
		{"negative faillinks", []string{"-fault", "faillinks=-1"}, "faillinks"},
		{"negative batch", []string{"-batch", "-4"}, "batch must be positive"},
		{"bad shape", []string{"-shape", "2x2"}, "bad shape"},
		{"unknown pattern", []string{"-pattern", "sideways"}, "unknown pattern"},
		{"unknown arbiter", []string{"-arbiter", "fifo"}, "unknown arbiter"},
		{"unknown scheme", []string{"-scheme", "extra"}, "unknown scheme"},
		{"unknown engine", []string{"-engine", "warp"}, "unknown engine"},
		{"negative shards", []string{"-shards", "-1"}, "shards must be >= 0"},
		{"sharded scan", []string{"-engine", "scan", "-shards", "2"}, "requires the active engine"},
		{"sharded check", []string{"-shards", "2", "-check"}, "Config.Check"},
		{"checkpointed telemetry", []string{"-checkpoint-dir", "x", "-checkpoint-every", "100", "-telemetry", "y"}, "Config.Telemetry"},
		{"checkpointed fault run", []string{"-checkpoint-dir", "x", "-checkpoint-every", "100", "-fault", "corrupt=0.01"}, "no RunCkpt"},
		{"unknown flag", []string{"-frobnicate"}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out, errb bytes.Buffer
			if code := run(tc.args, &out, &errb); code != 2 {
				t.Fatalf("exit code = %d, want 2 (stderr: %s)", code, errb.String())
			}
			if tc.want != "" && !strings.Contains(errb.String(), tc.want) {
				t.Errorf("stderr missing %q:\n%s", tc.want, errb.String())
			}
			if tc.want != "" && !strings.Contains(errb.String(), "usage:") {
				t.Errorf("stderr missing usage hint:\n%s", errb.String())
			}
		})
	}
}

// TestFlagInventory pins the exact flag set, read off the -h listing: an
// option cannot appear, or reappear, without editing this test.
func TestFlagInventory(t *testing.T) {
	var out, errb bytes.Buffer
	run([]string{"-h"}, &out, &errb)
	var got []string
	for _, line := range strings.Split(errb.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "  -"); ok {
			got = append(got, strings.Fields(rest)[0])
		}
	}
	const want = "arbiter batch check checkpoint-dir checkpoint-every cpuprofile engine fault json " +
		"memprofile pattern resume scheme seed shape shards telemetry"
	if g := strings.Join(got, " "); g != want {
		t.Errorf("flags = %s\nwant    %s", g, want)
	}
}

// TestRunFaultFree exercises the full fault-free path on a tiny machine.
func TestRunFaultFree(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-shape", "2x2x2", "-batch", "4", "-check"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit code = %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "normalized throughput") {
		t.Errorf("missing throughput summary:\n%s", out.String())
	}
}

// TestRunWithFaultSpec exercises the fault path end to end: the run completes
// under corruption, reports the reliability counters, and exits 0.
func TestRunWithFaultSpec(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-shape", "2x2x2", "-batch", "4", "-check",
		"-fault", "corrupt=0.02"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit code = %d, stderr: %s", code, errb.String())
	}
	for _, want := range []string{"fault layer:", "corrupt_injected", "retransmits"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("missing %q in output:\n%s", want, out.String())
		}
	}
}
