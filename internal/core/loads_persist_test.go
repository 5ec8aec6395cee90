package core

import (
	"encoding/json"
	"math"
	"testing"

	"anton2/internal/loadcalc"
	"anton2/internal/machine"
	"anton2/internal/topo"
	"anton2/internal/traffic"
)

// TestSnapshotRestoreLoadsRoundTrip verifies a load table survives the JSON
// round trip bit-for-bit on every field a consumer reads, and that restoring
// seeds the shared cache so the analytic computation is skipped.
func TestSnapshotRestoreLoadsRoundTrip(t *testing.T) {
	cfg := machine.DefaultConfig(topo.Shape3(2, 2, 2))
	pat := traffic.Uniform{}
	orig, err := PatternLoads(cfg, pat)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := SnapshotLoads()
	if err != nil {
		t.Fatal(err)
	}
	key := loadsKey(cfg, pat)
	if _, ok := snap[key]; !ok {
		t.Fatalf("snapshot missing key %q (have %d entries)", key, len(snap))
	}

	// Restore into a logically cold cache by using a foreign key, then
	// verify the restored table matches the original on the fields the
	// weight builder and normalizers consume.
	coldKey := key + " restored-copy"
	if n, err := RestoreLoads(map[string]json.RawMessage{coldKey: snap[key]}); err != nil || n != 1 {
		t.Fatalf("RestoreLoads = (%d, %v), want (1, nil)", n, err)
	}
	v, hit, err := sharedLoads.Do(coldKey, func() (any, error) {
		t.Fatal("restored key recomputed")
		return nil, nil
	})
	if err != nil || !hit {
		t.Fatalf("restored key not served from cache: hit=%v err=%v", hit, err)
	}
	got := v.(*loadcalc.Loads)
	if got.Cfg != nil {
		t.Error("restored table carries a routing config; it must be nil")
	}
	if got.Sources != orig.Sources || got.MeanTorusHops != orig.MeanTorusHops {
		t.Errorf("scalars diverge: %+v vs %+v", got.Sources, orig.Sources)
	}
	if math.Abs(got.SaturationRate()-orig.SaturationRate()) != 0 {
		t.Errorf("saturation rate diverges: %g vs %g", got.SaturationRate(), orig.SaturationRate())
	}
	for i := range orig.Torus {
		if got.Torus[i] != orig.Torus[i] {
			t.Fatalf("torus load %d diverges: %g vs %g", i, got.Torus[i], orig.Torus[i])
		}
	}
	for i := range orig.Chan {
		if got.Chan[i] != orig.Chan[i] {
			t.Fatalf("mesh load %d diverges: %g vs %g", i, got.Chan[i], orig.Chan[i])
		}
	}
	for r := range orig.SA1 {
		for p := range orig.SA1[r] {
			for vc := range orig.SA1[r][p] {
				if got.SA1[r][p][vc] != orig.SA1[r][p][vc] {
					t.Fatalf("SA1[%d][%d][%d] diverges", r, p, vc)
				}
			}
		}
	}
	for a := range orig.AdEg {
		for vc := range orig.AdEg[a] {
			if got.AdEg[a][vc] != orig.AdEg[a][vc] || got.AdIn[a][vc] != orig.AdIn[a][vc] {
				t.Fatalf("adapter arbiter loads diverge at [%d][%d]", a, vc)
			}
		}
	}
}
