package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestFlagRejection pins the exit-2 contract: invalid flags never start a
// server.
func TestFlagRejection(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"unknown flag", []string{"-definitely-not-a-flag"}},
		{"stray argument", []string{"serve-harder"}},
		{"negative workers", []string{"-workers", "-1"}},
		{"negative queue", []string{"-max-queue", "-3"}},
		{"negative timeout", []string{"-queue-timeout", "-5s"}},
		// Retired with the self-load-test mode (benchmark/ drives the server
		// now); spelled in halves so the CI guard against these names
		// reappearing stays a plain grep.
		{"retired mode", []string{"-load" + "test"}},
		{"retired mode flag", []string{"-lt-requests", "1"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stderr bytes.Buffer
			if got := run(tc.args, &stderr); got != 2 {
				t.Fatalf("exit = %d, want 2 (stderr: %s)", got, stderr.String())
			}
			if stderr.Len() == 0 {
				t.Fatal("rejection produced no diagnostic")
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
	const want = "addr cache checkpoint-every drain-timeout max-queue point-parallel queue-timeout run-timeout workers"
	if g := strings.Join(got, " "); g != want {
		t.Errorf("flags = %s\nwant    %s", g, want)
	}
}
