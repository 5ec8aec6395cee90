package core

import (
	"encoding/json"
	"fmt"

	"anton2/internal/exp"
	"anton2/internal/loadcalc"
	"anton2/internal/machine"
	"anton2/internal/route"
	"anton2/internal/topo"
	"anton2/internal/traffic"
)

// sharedLoads memoizes loadcalc.Compute results per (routing configuration,
// pattern). Load computation is purely analytic — it depends only on the
// shape, scheme, direction order, and skip policy — so one computation per
// distinct key serves every sweep point and every weight-table build, serial
// or parallel. Cached *loadcalc.Loads are shared read-only.
var sharedLoads = exp.NewCache()

// loadsKey canonically identifies the inputs of a pattern-load computation.
// Patterns are keyed by Name(), which uniquely identifies every pattern in
// internal/traffic; custom Permutation patterns must use distinct labels.
func loadsKey(cfg machine.Config, p traffic.Pattern) string {
	return fmt.Sprintf("loads{shape=%v scheme=%s dir=%v skip=%v exitskip=%v pattern=%s}",
		cfg.Shape, cfg.Strategy().Name(), cfg.DirOrder, cfg.UseSkip, cfg.ExitSkip, p.Name())
}

// computeLoads is the uncached load computation behind PatternLoads.
func computeLoads(cfg machine.Config, p traffic.Pattern) (*loadcalc.Loads, error) {
	tm, err := topo.NewMachine(cfg.Shape)
	if err != nil {
		return nil, err
	}
	return loadcalc.Compute(cfg.RouteConfig(tm), tm.Chip.CoreEndpoints(), p.Flows(tm), route.ClassRequest), nil
}

// CachedLoadsLen reports how many distinct (configuration, pattern) load
// tables are cached: the completed ones, which is what SnapshotLoads writes —
// a table still being computed is not counted.
func CachedLoadsLen() int {
	n := 0
	sharedLoads.Range(func(string, any) { n++ })
	return n
}

// loadsWire shadows Loads.Cfg out of the JSON encoding: the routing
// configuration holds an interface-valued scheme and a topology pointer —
// neither round-trips through JSON — and no post-computation consumer
// (BuildWeights, SaturationRate, the normalizers) reads it, so a restored
// table with a nil Cfg is fully usable. The shadow must carry a JSON name
// (a `json:"-"` field would not participate in field dominance); a nil
// RawMessage with omitempty keeps it out of the encoded bytes.
type loadsWire struct {
	*loadcalc.Loads
	Cfg json.RawMessage `json:"Cfg,omitempty"`
}

// SnapshotLoads serializes every completed cached load table, keyed by its
// canonical loadsKey string. anton2serve persists the snapshot next to its
// artifact cache so a restarted server skips the analytic route enumeration
// for every configuration it has ever served.
func SnapshotLoads() (map[string]json.RawMessage, error) {
	out := map[string]json.RawMessage{}
	var firstErr error
	sharedLoads.Range(func(key string, val any) {
		l, ok := val.(*loadcalc.Loads)
		if !ok {
			return
		}
		b, err := json.Marshal(loadsWire{Loads: l})
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("core: snapshot loads %q: %w", key, err)
			}
			return
		}
		out[key] = b
	})
	return out, firstErr
}

// RestoreLoads pre-seeds the shared load-table cache from a SnapshotLoads
// snapshot, returning how many entries were inserted. Keys already present
// (computed or in flight) win over the snapshot, so restoring is always
// safe, including concurrently with live traffic.
func RestoreLoads(snapshot map[string]json.RawMessage) (int, error) {
	restored := 0
	for key, raw := range snapshot {
		l := &loadcalc.Loads{}
		if err := json.Unmarshal(raw, &loadsWire{Loads: l}); err != nil {
			return restored, fmt.Errorf("core: restore loads %q: %w", key, err)
		}
		if sharedLoads.Seed(key, l) {
			restored++
		}
	}
	return restored, nil
}
