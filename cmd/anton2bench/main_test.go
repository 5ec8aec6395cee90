package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestInvalidFlagsRejected: malformed invocations exit 2 before any
// experiment runs, with a one-line usage hint.
func TestInvalidFlagsRejected(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"negative rate", []string{"-fault", "corrupt=-0.1", "faultsweep"}, "must be in [0,1]"},
		{"NaN rate", []string{"-fault", "stall=NaN", "faultsweep"}, "must be finite"},
		{"malformed spec", []string{"-fault", "corrupt:0.1", "faultsweep"}, "malformed spec"},
		{"unknown spec key", []string{"-fault", "chaos=1", "faultsweep"}, "unknown spec key"},
		{"retired fault key", []string{"-fault", "window=8", "faultsweep"}, `unknown spec key "window"`},
		{"one-node shape", []string{"-shape", "1x1x1", "fig9"}, `axis "shape"`},
		{"negative parallel", []string{"-parallel", "-2", "fig4"}, "parallel must be >= 0"},
		{"unknown engine", []string{"-engine", "warp", "fig4"}, "unknown engine"},
		{"negative shards", []string{"-shards", "-1", "fig4"}, "shards must be >= 0"},
		{"sharded scan", []string{"-engine", "scan", "-shards", "2", "fig4"}, "requires the active engine"},
		{"checkpointed family without RunCkpt", []string{"-quick", "-checkpoint-dir", "x", "-checkpoint-every", "100", "fig11"}, "no RunCkpt"},
		{"checkpointed analytic experiment", []string{"-checkpoint-dir", "x", "-checkpoint-every", "100", "fig4"}, "no RunCkpt"},
		{"lone checkpoint dir", []string{"-checkpoint-dir", "x", "fig9"}, "-checkpoint-every"},
		{"bad shape", []string{"-shape", "8by8", "fig9"}, "bad shape"},
		{"unknown flag", []string{"-frobnicate"}, ""},
		// The positional argument is the one spelling of the experiment name.
		{"conflicting experiment", []string{"-experiment", "fig4", "fig9"}, ""},
		// Retired with the in-binary kernel benchmark (benchmark/ measures the
		// simulator now); spelled in halves so the CI guard against these
		// names reappearing stays a plain grep.
		{"retired experiment", []string{"kernel" + "bench"}, ""},
		{"retired flag", []string{"-bench" + "out", "x", "fig4"}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var errb bytes.Buffer
			if code := run(tc.args, &errb); code != 2 {
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
	var errb bytes.Buffer
	run([]string{"-h"}, &errb)
	var got []string
	for _, line := range strings.Split(errb.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "  -"); ok {
			got = append(got, strings.Fields(rest)[0])
		}
	}
	const want = "check checkpoint-dir checkpoint-every cpuprofile engine fault json " +
		"memprofile parallel quick shape shards telemetry"
	if g := strings.Join(got, " "); g != want {
		t.Errorf("flags = %s\nwant    %s", g, want)
	}
}

// TestUnknownExperimentExits2 preserves the historical exit-status contract.
func TestUnknownExperimentExits2(t *testing.T) {
	var errb bytes.Buffer
	if code := run([]string{"fig99"}, &errb); code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "faultsweep") {
		t.Errorf("valid-name list missing faultsweep:\n%s", errb.String())
	}
}

// TestQuickFaultsweepArtifact runs the quick robustness sweep end to end and
// checks the JSON artifact has at least 5 fault-rate points, all successful.
func TestQuickFaultsweepArtifact(t *testing.T) {
	dir := t.TempDir()
	var errb bytes.Buffer
	if code := run([]string{"-quick", "-check", "-shards", "2", "-json", dir, "faultsweep"}, &errb); code != 0 {
		t.Fatalf("exit code = %d, stderr:\n%s", code, errb.String())
	}
	data, err := os.ReadFile(filepath.Join(dir, "faultsweep.json"))
	if err != nil {
		t.Fatal(err)
	}
	var artifact struct {
		Results []struct {
			Spec  string `json:"spec"`
			Error string `json:"error"`
			Value struct {
				CorruptRate float64 `json:"corrupt_rate"`
				Throughput  float64 `json:"throughput"`
			} `json:"value"`
		} `json:"results"`
	}
	if err := json.Unmarshal(data, &artifact); err != nil {
		t.Fatal(err)
	}
	if len(artifact.Results) < 5 {
		t.Fatalf("artifact has %d points, want >= 5", len(artifact.Results))
	}
	for i, r := range artifact.Results {
		if r.Error != "" {
			t.Errorf("point %d failed: %s", i, r.Error)
		}
		if r.Value.Throughput <= 0 {
			t.Errorf("point %d has no throughput: %+v", i, r.Value)
		}
		if !strings.Contains(r.Spec, "fault=") {
			t.Errorf("point %d spec missing fault key: %s", i, r.Spec)
		}
	}
}

// TestQuickRouteCompareArtifact runs the quick strategy comparison and checks
// the canonical artifact scores every registered strategy, with the strategy
// name keyed into each spec.
func TestQuickRouteCompareArtifact(t *testing.T) {
	dir := t.TempDir()
	var errb bytes.Buffer
	if code := run([]string{"-quick", "-json", dir, "routecompare"}, &errb); code != 0 {
		t.Fatalf("exit code = %d, stderr:\n%s", code, errb.String())
	}
	data, err := os.ReadFile(filepath.Join(dir, "routecompare.canonical.json"))
	if err != nil {
		t.Fatal(err)
	}
	var artifact struct {
		Results []struct {
			Spec  string `json:"spec"`
			Error string `json:"error"`
			Value struct {
				Strategy   string  `json:"strategy"`
				Throughput float64 `json:"throughput"`
			} `json:"value"`
		} `json:"results"`
	}
	if err := json.Unmarshal(data, &artifact); err != nil {
		t.Fatal(err)
	}
	strategies := map[string]bool{}
	for i, r := range artifact.Results {
		if r.Error != "" {
			t.Errorf("point %d failed: %s", i, r.Error)
		}
		if r.Value.Throughput <= 0 {
			t.Errorf("point %d has no throughput: %+v", i, r.Value)
		}
		if !strings.Contains(r.Spec, "scheme="+r.Value.Strategy) {
			t.Errorf("point %d spec does not key the strategy %q: %s", i, r.Value.Strategy, r.Spec)
		}
		strategies[r.Value.Strategy] = true
	}
	if len(strategies) < 4 {
		t.Errorf("artifact scores %d strategies, want >= 4: %v", len(strategies), strategies)
	}
}

// stdoutOf runs anton2bench with args, requires exit 0, and returns what it
// printed.
func stdoutOf(t *testing.T, args ...string) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	printed := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		printed <- string(b)
	}()
	stdout := os.Stdout
	os.Stdout = w
	var errb bytes.Buffer
	code := run(args, &errb)
	os.Stdout = stdout
	w.Close()
	out := <-printed
	if code != 0 {
		t.Fatalf("%v: exit code = %d, stderr:\n%s", args, code, errb.String())
	}
	return out
}

// TestFoldedAnalyticExperiments pins what anton2bench took over from the two
// retired side commands (the routing-analysis and topology printers): the
// Figure 1 layout dump, the per-order table and loaded-channel list of fig4,
// and -shape reaching fig2 and deadlock.
func TestFoldedAnalyticExperiments(t *testing.T) {
	fig1 := stdoutOf(t, "fig1")
	for _, want := range []string{
		"R0,3*[E:1 C:1]  R1,3 [E:2 C:0]  R2,3 [E:1 C:0]  R3,3*[E:1 C:1]",
		"* = skip-channel corner router",
		"CX+/0  at R0,3",
		"skip channels:  R3,0 <-> R0,0  R3,3 <-> R0,3",
	} {
		if !strings.Contains(fig1, want) {
			t.Errorf("fig1 output missing %q:\n%s", want, fig1)
		}
	}

	fig4 := stdoutOf(t, "fig4")
	_, table, ok := strings.Cut(fig4, "worst-case load of every direction order (* = optimal):\n")
	if !ok {
		t.Fatalf("fig4 output has no per-order table:\n%s", fig4)
	}
	rows := strings.Split(strings.TrimSuffix(table, "\n"), "\n")
	optimal := 0
	for _, row := range rows {
		starred := strings.HasPrefix(strings.TrimSpace(row), "*")
		if starred {
			optimal++
		}
		if starred != strings.Contains(row, "  2.0") || starred == strings.Contains(row, "  3.0") {
			t.Errorf("fig4 order row %q: want load 2.0 on starred rows, 3.0 on the rest", row)
		}
	}
	if len(rows) != 24 || optimal != 6 {
		t.Errorf("fig4 table has %d order rows, %d optimal; want 24, 6:\n%s", len(rows), optimal, table)
	}
	for _, want := range []string{
		"* V- U- V+ U+  2.0  (default)",
		"  V- U+ U- V+  3.0  (the paper's published order",
		"R0,1->R0,2   2.0",
	} {
		if !strings.Contains(fig4, want) {
			t.Errorf("fig4 output missing %q:\n%s", want, fig4)
		}
	}

	fig2 := stdoutOf(t, "-shape", "4x4x4", "fig2")
	if !strings.Contains(fig2, "measured: 4 backplanes in 1 racks") || strings.Contains(fig2, "inter-rack") {
		t.Errorf("fig2 on 4x4x4: want 4 backplanes in 1 rack and no inter-rack cable:\n%s", fig2)
	}

	// Radix-3 rings are crossed in one hop, so even the broken scheme is
	// acyclic there and the experiment must not call that a wrong verdict.
	dl := stdoutOf(t, "-shape", "3x3x2", "deadlock")
	if n := strings.Count(dl, "on 3x3x2 -> deadlock-free"); n != 5 {
		t.Errorf("deadlock on 3x3x2: %d deadlock-free verdicts, want 5:\n%s", n, dl)
	}
}
