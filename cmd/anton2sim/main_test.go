package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"anton2/internal/ckpt"
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
		{"retired fault key", []string{"-fault", "window=8"}, `unknown spec key "window"`},
		{"negative faillinks", []string{"-fault", "faillinks=-1"}, "faillinks"},
		{"negative batch", []string{"-batch", "-4"}, "batch must be positive"},
		{"bad shape", []string{"-shape", "2x2"}, "bad shape"},
		{"unknown pattern", []string{"-pattern", "sideways"}, "unknown pattern"},
		{"unknown arbiter", []string{"-arbiter", "fifo"}, "unknown arbiter"},
		{"unknown scheme", []string{"-scheme", "extra"}, "unknown scheme"},
		{"unknown engine", []string{"-engine", "warp"}, "unknown engine"},
		{"negative shards", []string{"-shards", "-1"}, "shards must be >= 0"},
		{"sharded scan", []string{"-engine", "scan", "-shards", "2"}, "requires the active engine"},
		{"lone checkpoint dir", []string{"-checkpoint-dir", "x"}, "-checkpoint-every"},
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
		"memprofile pattern scheme seed shape shards telemetry"
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
// under corruption — sharded, with the invariant suite on — reports the
// reliability counters, and exits 0.
func TestRunWithFaultSpec(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-shape", "2x2x2", "-batch", "4", "-check", "-shards", "2",
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

// TestTelemetryShardParity: -telemetry composes with sharding. The report and
// the packet trace a two-shard run writes are byte-identical to those of a
// serial run and of the scan engine's.
func TestTelemetryShardParity(t *testing.T) {
	var want [2][]byte
	for i, mode := range [][]string{{"-engine", "scan"}, {"-shards", "1"}, {"-shards", "2"}} {
		dir := t.TempDir()
		var out, errb bytes.Buffer
		args := append([]string{"-shape", "4x4x2", "-batch", "4", "-telemetry", dir}, mode...)
		if code := run(args, &out, &errb); code != 0 {
			t.Fatalf("%v: exit code = %d, stderr: %s", mode, code, errb.String())
		}
		for j, name := range []string{"anton2sim.json", "anton2sim.trace.json"} {
			got, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				want[j] = got
			} else if !bytes.Equal(got, want[j]) {
				t.Errorf("%v: %s differs from the scan engine's", mode, name)
			}
		}
	}
}

// TestFaultRunKillResume: a -fault run checkpoints like any other. The built
// binary is started with -checkpoint-every, killed with SIGKILL as soon as its
// first checkpoint is on disk, and run again with the same arguments, which
// resumes it; what the resumed run prints — cycles, throughput, latency
// quantiles, every fault counter — must be what an uninterrupted run prints,
// and its checkpoint must be gone.
func TestFaultRunKillResume(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills the binary")
	}
	bin := filepath.Join(t.TempDir(), "anton2sim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	args := []string{"-shape", "4x4x2", "-batch", "128", "-fault", "corrupt=0.01,stall=0.001"}
	var ref, errb bytes.Buffer
	if code := run(args, &ref, &errb); code != 0 {
		t.Fatalf("uninterrupted run: exit code = %d, stderr: %s", code, errb.String())
	}

	dir := t.TempDir()
	args = append(args, "-checkpoint-dir", dir, "-checkpoint-every", "100")
	victim := exec.Command(bin, args...)
	if err := victim.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- victim.Wait() }()
	var saved []string
	for deadline := time.Now().Add(time.Minute); len(saved) == 0; time.Sleep(2 * time.Millisecond) {
		select {
		case err := <-exited:
			t.Fatalf("the run ended (%v) before a checkpoint was seen; it is too short to kill", err)
		default:
		}
		if time.Now().After(deadline) {
			victim.Process.Kill()
			t.Fatal("no checkpoint appeared within a minute")
		}
		saved, _ = filepath.Glob(filepath.Join(dir, "*.ckpt"))
	}
	victim.Process.Kill()
	<-exited
	if c, err := ckpt.ReadFile(saved[0]); err != nil || c.Cycle == 0 {
		t.Fatalf("killed run's checkpoint: %+v, %v", c, err)
	}

	var got bytes.Buffer
	if code := run(args, &got, &errb); code != 0 {
		t.Fatalf("resumed run: exit code = %d, stderr: %s", code, errb.String())
	}
	if got.String() != ref.String() {
		t.Errorf("resumed run printed\n%s\nuninterrupted run printed\n%s", got.String(), ref.String())
	}
	if left, _ := os.ReadDir(dir); len(left) != 0 {
		t.Errorf("%d files left in the checkpoint directory after the resumed run", len(left))
	}
}
