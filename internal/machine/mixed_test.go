package machine

import (
	"testing"

	"anton2/internal/topo"
)

// TestMixedCycles pins the per-cycle rule's premise: a sharded machine may
// step any cycle serially or in parallel, in any interleaving, and stay
// bit-identical to the scan reference. Each scenario runs on the scan engine
// once, recording the fingerprint after every cycle and a snapshot every few;
// then a sharded machine is stepped through the same cycles under each forced
// policy and held, after every cycle, to the reference fingerprint and the
// mask contract, and at the snapshot cycles to the reference snapshot's raw
// bytes — its own and that of a fresh machine restored from it. 2x2x2 runs all three
// policies; 4x4x2 only the alternating one, which takes both kinds of cycle
// and every transition between them (TestCheckedShardsMatchScan runs the
// other two there, end to end).
func TestMixedCycles(t *testing.T) {
	shapes := []struct {
		shape      topo.TorusShape
		shards     int
		snapStride uint64
		policies   []string
	}{
		{topo.Shape3(2, 2, 2), 2, 5, []string{"serial", "parallel", "alternating"}},
		{topo.Shape3(4, 4, 2), 4, 97, []string{"alternating"}},
	}
	if testing.Short() {
		shapes = shapes[:1]
	}
	for _, sh := range shapes {
		for _, sc := range maskScenarios {
			ref := MustNew(sc.config(sh.shape, EngineScan, 0))
			total := sc.inject(ref)
			var fps []fingerprint
			snaps := map[uint64][]byte{}
			for ref.Delivered() < total {
				if ref.Engine.Now() > 200_000 {
					t.Fatalf("%v %s: reference did not finish (delivered %d/%d)", sh.shape, sc.name, ref.Delivered(), total)
				}
				ref.Engine.Step()
				fps = append(fps, ref.fingerprint(ref.Engine.Now(), nil))
				if now := ref.Engine.Now(); now%sh.snapStride == 0 {
					snaps[now] = mustSnapshot(t, ref)
				}
			}
			for _, pname := range sh.policies {
				policy := cyclePolicies[pname]
				t.Run(sh.shape.String()+"/"+sc.name+"/"+pname, func(t *testing.T) {
					build := func() *Machine { return MustNew(sc.config(sh.shape, EngineActive, sh.shards)) }
					m := build()
					sc.inject(m)
					m.Engine.ForceParallelForTest(policy)
					for _, want := range fps {
						m.Engine.Step()
						now := m.Engine.Now()
						if got := m.fingerprint(now, nil); got != want {
							t.Fatalf("after cycle %d: trajectory divergence:\n  scan: %+v\n  got:  %+v", now-1, want, got)
						}
						if errs := m.maskErrors(); errs != nil {
							t.Fatalf("after cycle %d: %d mask errors, first: %s", now-1, len(errs), errs[0])
						}
						wantSnap, ok := snaps[now]
						if !ok {
							continue
						}
						raw := mustSnapshot(t, m)
						if string(raw) != string(wantSnap) {
							t.Fatalf("snapshot at %d differs from the scan reference's", now)
						}
						r := build()
						if err := r.RestoreSnapshot(raw); err != nil {
							t.Fatalf("restore at %d: %v", now, err)
						}
						if errs := r.maskErrors(); errs != nil {
							t.Fatalf("restored at %d: %d mask errors, first: %s", now, len(errs), errs[0])
						}
						if again := mustSnapshot(t, r); string(again) != string(wantSnap) {
							t.Fatalf("snapshot of the machine restored at %d differs from the scan reference's", now)
						}
					}
					// A serially stepped cycle stages and defers nothing; the
					// other two policies must have exercised the barrier.
					deferred := 0
					for si := range m.shards {
						deferred += cap(m.shards[si].deliv)
					}
					if (deferred > 0) != (pname != "serial") {
						t.Errorf("deferred-delivery capacity %d under the %s policy", deferred, pname)
					}
				})
			}
		}
	}
}
