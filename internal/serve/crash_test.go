package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"anton2/internal/exp"
	"anton2/internal/telemetry"
)

// warmArtifact runs one server over dir long enough to persist quickSpec's
// artifact, then shuts it down, returning the run id and artifact bytes.
func warmArtifact(t *testing.T, dir string) (string, []byte) {
	t.Helper()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewServer(Config{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	resp, body := postWait(t, ts, quickSpec())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm-up status = %d, body %s", resp.StatusCode, body)
	}
	id := resp.Header.Get("X-Anton2-Run-Id")
	// SaveArtifact runs after the run finishes; wait for it to land.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, ok, _ := st.LoadArtifact(id); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("artifact never persisted")
		}
		time.Sleep(5 * time.Millisecond)
	}
	ts.Close()
	stop(s)
	return id, body
}

// TestArtifactVerifyQuarantine is the store-hardening acceptance test: a
// corrupted on-disk artifact is detected on read, quarantined, and the spec
// transparently re-simulated to byte-identical replacement bytes.
func TestArtifactVerifyQuarantine(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(t *testing.T, path string)
	}{
		{"bitflip", func(t *testing.T, path string) {
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			b[len(b)/2] ^= 0x01
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"truncation", func(t *testing.T, path string) {
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(path, fi.Size()/2); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			id, want := warmArtifact(t, dir)
			tc.corrupt(t, filepath.Join(dir, "artifacts", id+".art"))

			st, err := OpenStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			s, ts := newTestServer(t, Config{Store: st})
			resp, got := postWait(t, ts, quickSpec())
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status after corruption = %d, body %s", resp.StatusCode, got)
			}
			if !bytes.Equal(got, want) {
				t.Fatal("re-simulated artifact differs from the original bytes")
			}
			if n := st.Quarantined.Load(); n != 1 {
				t.Fatalf("Quarantined = %d, want 1", n)
			}
			if _, err := os.Stat(filepath.Join(dir, "quarantine", id+".art")); err != nil {
				t.Fatalf("corrupted artifact not quarantined: %v", err)
			}
			if got := s.metrics.RunsStarted.Load(); got != 1 {
				t.Fatalf("RunsStarted = %d, want 1 (corruption must force re-simulation)", got)
			}
		})
	}
}

// TestWALRestartCompletes is the crash-recovery acceptance test: a run
// admitted but never executed (the process died first) is re-admitted from
// the write-ahead log by the next server over the same store and driven to a
// persisted artifact, byte-identical to a direct computation; the WAL entry
// is then cleaned up.
func TestWALRestartCompletes(t *testing.T) {
	dir := t.TempDir()
	st1, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := NewServer(Config{Store: st1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	s1.slots <- struct{}{} // the worker is "busy": the run can only queue
	r, err := s1.submit(quickSpec())
	if err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(dir, "wal", r.id+".json")
	if _, err := os.Stat(walPath); err != nil {
		t.Fatalf("admitted run not recorded in wal: %v", err)
	}
	stop(s1) // "crash": the queued run dies without an artifact

	jobs, err := quickSpec().Jobs(func() *telemetry.Options { return nil })
	if err != nil {
		t.Fatal(err)
	}
	want, err := exp.MarshalCanonical(exp.Run(jobs, exp.Options{Cache: exp.NewCache()}))
	if err != nil {
		t.Fatal(err)
	}

	st2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2, _ := newTestServer(t, Config{Store: st2, Workers: 1})
	deadline := time.Now().Add(30 * time.Second)
	var got []byte
	for {
		if b, ok, _ := st2.LoadArtifact(r.id); ok {
			got = b
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("restarted server never finished the wal-recovered run")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("wal-recovered artifact differs from direct computation")
	}
	if got := s2.metrics.RunsStarted.Load(); got != 1 {
		t.Fatalf("RunsStarted = %d, want 1 (recovery re-simulates the lost run)", got)
	}
	for {
		if _, err := os.Stat(walPath); os.IsNotExist(err) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("wal entry not removed after the artifact persisted")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestHealthEndpoints pins the liveness/readiness split: /livez is always
// 200, /readyz (and /healthz, its poll-compatible alias) report 503 while
// startup recovery runs and while draining.
func TestHealthEndpoints(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	getStatus := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		var body struct {
			Status string `json:"status"`
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		_ = json.Unmarshal(b, &body)
		return resp.StatusCode, body.Status
	}

	if code, _ := getStatus("/livez"); code != http.StatusOK {
		t.Fatalf("/livez = %d, want 200", code)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if code, _ := getStatus("/readyz"); code == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("/readyz never became 200")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Simulate in-progress startup recovery.
	s.ready.Store(false)
	if code, status := getStatus("/readyz"); code != http.StatusServiceUnavailable || status != "resuming" {
		t.Fatalf("/readyz while recovering = %d %q, want 503 resuming", code, status)
	}
	if code, _ := getStatus("/healthz"); code != http.StatusServiceUnavailable {
		t.Fatal("/healthz must gate on readiness")
	}
	if code, _ := getStatus("/livez"); code != http.StatusOK {
		t.Fatal("/livez must stay 200 while recovering")
	}
	s.ready.Store(true)

	s.draining.Store(true)
	if code, status := getStatus("/readyz"); code != http.StatusServiceUnavailable || status != "draining" {
		t.Fatalf("/readyz while draining = %d %q, want 503 draining", code, status)
	}
	if code, _ := getStatus("/livez"); code != http.StatusOK {
		t.Fatal("/livez must stay 200 while draining")
	}
}

// TestServeCheckpointedRunBitIdentical: turning server-side checkpointing on
// must not change a single artifact byte relative to a direct, never-
// checkpointed computation, and completed runs leave no checkpoint files
// behind.
func TestServeCheckpointedRunBitIdentical(t *testing.T) {
	req := &Request{
		Family:      "mdstep",
		Shape:       "2x2x2",
		HaloPackets: 4,
		HaloBurst:   2,
		Multicasts:  1,
		Strategies:  []string{"anton"},
	}
	jobs, err := req.Jobs(func() *telemetry.Options { return nil })
	if err != nil {
		t.Fatal(err)
	}
	want, err := exp.MarshalCanonical(exp.Run(jobs, exp.Options{Cache: exp.NewCache()}))
	if err != nil {
		t.Fatal(err)
	}

	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Store: st, CheckpointEvery: 40})
	resp, got := postWait(t, ts, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("checkpointed artifact differs from direct un-checkpointed computation")
	}
	files, err := filepath.Glob(filepath.Join(st.Dir(), "ckpt", "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 0 {
		t.Fatalf("completed run left checkpoint files behind: %v", files)
	}
}
