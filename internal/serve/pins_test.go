package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"anton2/internal/core"
	"anton2/internal/exp"
	"anton2/internal/telemetry"
)

var updatePins = flag.Bool("update", false, "rewrite testdata/family_pins.json (deliberate canonical/artifact changes only)")

// familyPin freezes one request end to end: the body a client POSTs, the
// sweep-level canonical string and content address the server derives from
// it, and the SHA-256 of the artifact its jobs produce.
type familyPin struct {
	Family    string          `json:"family"`
	Request   json.RawMessage `json:"request"`
	Canonical string          `json:"canonical"`
	ID        string          `json:"id"`
	SHA256    string          `json:"sha256"`
}

const familyPinsPath = "testdata/family_pins.json"

// pinRequests are two small submissions per family: one near the defaults
// and one moving every optional axis the family has.
var pinRequests = []string{
	`{"family":"throughput","shape":"2x2x2","batches":[8,16]}`,
	`{"family":"throughput","shape":"4x2x2","pattern":"2-hop","arbiter":"iw","batches":[8]}`,
	`{"family":"blend","shape":"4x2x2","fractions":[0,0.5,1],"batch":8}`,
	`{"family":"blend","shape":"4x2x2","weights":"both","fractions":[0.25],"batch":12}`,
	`{"family":"latency","shape":"2x2x2"}`,
	`{"family":"latency","shape":"3x2x2"}`,
	`{"family":"energy"}`,
	`{"family":"energy","payload":"random","flits":120}`,
	`{"family":"faultsweep","shape":"2x2x2","rates":[0,0.02],"batch":16}`,
	`{"family":"faultsweep","shape":"4x2x2","pattern":"tornado","rates":[0.01],"batch":8,"fault":"stall=0.001,faillinks=1"}`,
	`{"family":"routecompare","shape":"2x2x2","batch":8}`,
	`{"family":"routecompare","shape":"3x2x2","pattern":"1-hop","batch":4,"strategies":["vcless","anton"],"faillinks":[0,1]}`,
	`{"family":"mdstep","shape":"2x2x2"}`,
	`{"family":"mdstep","shape":"2x2x2","strategies":["angara"],"halopackets":4,"haloburst":2,"multicasts":1,"reducepackets":1,"timesteps":2}`,
}

// replayPin runs one request body through the public request path —
// ParseRequest, Canonical, ID, Jobs — and the exp pool, exactly as a cold
// submission does.
func replayPin(t *testing.T, body string) familyPin {
	t.Helper()
	req, err := ParseRequest(bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatalf("%s: %v", body, err)
	}
	canonical, err := req.Canonical()
	if err != nil {
		t.Fatalf("%s: %v", body, err)
	}
	id, err := req.ID()
	if err != nil {
		t.Fatalf("%s: %v", body, err)
	}
	jobs, err := req.Jobs(func() *telemetry.Options { return nil })
	if err != nil {
		t.Fatalf("%s: %v", body, err)
	}
	rs := exp.Run(jobs, exp.Serial())
	if n := exp.Failed(rs); n > 0 {
		t.Fatalf("%s: %d points failed: %v", body, n, exp.FirstErr(rs))
	}
	art, err := exp.MarshalCanonical(rs)
	if err != nil {
		t.Fatalf("%s: %v", body, err)
	}
	// A run restored from disk is described from its artifact alone.
	if n, fam := probeArtifact(art); n != len(rs) || fam != req.Family {
		t.Fatalf("%s: probeArtifact = (%d, %q), want (%d, %q)", body, n, fam, len(rs), req.Family)
	}
	return familyPin{
		Family:    req.Family,
		Request:   json.RawMessage(body),
		Canonical: canonical,
		ID:        id,
		SHA256:    fmt.Sprintf("%x", sha256.Sum256(art)),
	}
}

// loadFamilyPins reads the committed pins.
func loadFamilyPins(t *testing.T) []familyPin {
	t.Helper()
	data, err := os.ReadFile(familyPinsPath)
	if err != nil {
		t.Fatal(err)
	}
	var pins []familyPin
	if err := json.Unmarshal(data, &pins); err != nil {
		t.Fatal(err)
	}
	return pins
}

// TestFamilyPinsCoverRegistry insists every registered family is pinned by at
// least two requests, so a new family cannot ship unpinned.
func TestFamilyPinsCoverRegistry(t *testing.T) {
	pinned := map[string]int{}
	for _, pin := range loadFamilyPins(t) {
		pinned[pin.Family]++
	}
	for _, f := range core.Families() {
		if pinned[f.Name] < 2 {
			t.Errorf("family %q has %d pinned requests, want >= 2 (add to pinRequests, regenerate with -update)", f.Name, pinned[f.Name])
		}
	}
}

// TestFamilyPins replays the committed pins: every family's canonical
// strings, content addresses and artifact bytes are frozen, so a refactor of
// how requests become jobs cannot move a cache key or a result unnoticed.
// Run with -update only to record a deliberate change.
func TestFamilyPins(t *testing.T) {
	if *updatePins {
		pins := make([]familyPin, len(pinRequests))
		for i, body := range pinRequests {
			pins[i] = replayPin(t, body)
		}
		data, err := json.MarshalIndent(pins, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(familyPinsPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(familyPinsPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	pins := loadFamilyPins(t)
	if len(pins) != len(pinRequests) {
		t.Fatalf("%d pins on disk, %d pinned requests (regenerate with -update)", len(pins), len(pinRequests))
	}
	for i, want := range pins {
		want := want
		t.Run(fmt.Sprintf("%s-%d", want.Family, i%2), func(t *testing.T) {
			got := replayPin(t, string(want.Request))
			if got.Canonical != want.Canonical {
				t.Errorf("canonical moved:\n got %s\nwant %s", got.Canonical, want.Canonical)
			}
			if got.ID != want.ID {
				t.Errorf("id moved: got %s, want %s", got.ID, want.ID)
			}
			if got.SHA256 != want.SHA256 {
				t.Errorf("artifact bytes moved: sha256 got %s, want %s", got.SHA256, want.SHA256)
			}
		})
	}
}
