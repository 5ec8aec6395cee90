package machine

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"anton2/internal/packet"
	"anton2/internal/route"
	"anton2/internal/topo"
)

// TestChannelNamesFromIDs pins the names diagnostics print: every channel's
// name is its id rendered by topo.Machine.ChanName, and the stages a traced
// packet records at routers, channel adapters and endpoints are, byte for
// byte, the labels below. The traced run sends one packet from every node to
// every other node with seeded random choices, so every torus channel and
// adapter side is crossed; its stage sequence is hashed.
func TestChannelNamesFromIDs(t *testing.T) {
	for _, c := range []struct {
		shape topo.TorusShape
		hash  string
	}{
		{topo.Shape3(2, 2, 2), "9e7f61b245b90b48"},
		{topo.Shape3(4, 4, 2), "e651c85116498b76"},
	} {
		t.Run(c.shape.String(), func(t *testing.T) {
			m := MustNew(DefaultConfig(c.shape))
			for id := 0; id < m.Topo.NumChannels(); id++ {
				if got, want := m.Chan(id).Name(m.Topo), m.Topo.ChanName(id); got != want {
					t.Fatalf("channel %d is named %q, want %q", id, got, want)
				}
			}

			labels := map[string]bool{"endpoint inject": true, "endpoint deliver": true}
			for ri := 0; ri < topo.NumRouters; ri++ {
				labels["router "+topo.RouterCoord(ri).String()] = true
			}
			outs := map[string]bool{}
			for ai := 0; ai < topo.NumChannelAdapters; ai++ {
				id := topo.AdapterByIndex(ai).String()
				labels["adapter egress "+id] = true
				labels["adapter ingress "+id] = true
				labels["torus out "+id] = true
				outs["torus out "+id] = false
			}

			rng := rand.New(rand.NewSource(42))
			n := m.Topo.NumNodes()
			var pkts []*packet.Packet
			for src := 0; src < n; src++ {
				for dst := 0; dst < n; dst++ {
					if src == dst {
						continue
					}
					s := topo.NodeEp{Node: src, Ep: rng.Intn(topo.NumEndpoints)}
					d := topo.NodeEp{Node: dst, Ep: rng.Intn(topo.NumEndpoints)}
					p := m.MakeRandomPacket(s, d, route.ClassRequest, 0, rng)
					p.StartTrace()
					m.Endpoint(s).Inject(p)
					pkts = append(pkts, p)
				}
			}
			// Delivered packets are retained, so their traces stay readable.
			for id := 0; id < n; id++ {
				for ep := 0; ep < topo.NumEndpoints; ep++ {
					m.Endpoint(topo.NodeEp{Node: id, Ep: ep}).OnDeliver = func(*packet.Packet, uint64) bool { return true }
				}
			}
			if _, err := m.RunUntilDelivered(uint64(len(pkts)), 1_000_000); err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			for _, p := range pkts {
				for _, ev := range p.Trace {
					if !labels[ev.Stage] {
						t.Fatalf("packet %v: unexpected trace stage %q", p, ev.Stage)
					}
					if _, ok := outs[ev.Stage]; ok {
						outs[ev.Stage] = true
					}
					fmt.Fprintf(h, "%s@%d;", ev.Stage, ev.Cycle)
				}
				h.Write([]byte{'\n'})
			}
			var missing []string
			for l, seen := range outs {
				if !seen {
					missing = append(missing, l)
				}
			}
			if len(missing) > 0 {
				t.Errorf("no traced packet crossed %s", strings.Join(missing, ", "))
			}
			if got := fmt.Sprintf("%x", h.Sum(nil)[:8]); got != c.hash {
				t.Errorf("trace stage hash %s, want %s", got, c.hash)
			}
		})
	}
}
