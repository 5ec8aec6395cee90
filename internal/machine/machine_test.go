package machine

import (
	"math/rand"
	"testing"

	"anton2/internal/arbiter"
	"anton2/internal/packet"
	"anton2/internal/route"
	"anton2/internal/topo"
	"anton2/internal/traffic"
)

// TestEffectiveBandwidthDerivation pins where topo.TorusRateMilli comes
// from: a 24-byte payload in a 30-byte frame makes a 112 Gb/s torus
// channel carry 89.6 Gb/s, which is 45/14 cycles per flit of the 288 Gb/s mesh.
func TestEffectiveBandwidthDerivation(t *testing.T) {
	effective := 112.0 * 24 / 30
	if got := uint64(1000 * 288 / effective); effective != 89.6 || got != topo.TorusRateMilli {
		t.Errorf("effective %v Gb/s gives %d millicycles/flit, want 89.6 and %d", effective, got, topo.TorusRateMilli)
	}
}

func TestSinglePacketEndToEnd(t *testing.T) {
	m := MustNew(DefaultConfig(topo.Shape3(4, 2, 2)))
	src := topo.NodeEp{Node: 0, Ep: m.Topo.Chip.CoreEndpoint(topo.MeshCoord{U: 1, V: 1})}
	dst := topo.NodeEp{Node: 3, Ep: m.Topo.Chip.CoreEndpoint(topo.MeshCoord{U: 2, V: 2})}
	c := route.Choices{Order: topo.AllDimOrders[0], Slice: 0, Ties: [3]int8{1, 1, 1}}
	p := m.MakePacket(src, dst, c, route.ClassRequest, 0, 1)

	var gotHops uint8
	var latency uint64
	m.Endpoint(dst).OnDeliver = func(dp *packet.Packet, now uint64) bool {
		gotHops = dp.TorusHops
		latency = now - dp.InjectedAt
		return false
	}
	m.Endpoint(src).Inject(p)
	if _, err := m.RunUntilDelivered(1, 100_000); err != nil {
		t.Fatal(err)
	}
	// x: 0 -> 3 is -1 hop minimally on a radix-4 ring... 0->3 forward is
	// 3 hops, backward 1 hop; minimal is 1.
	if gotHops != 1 {
		t.Errorf("torus hops = %d, want 1 (minimal)", gotHops)
	}
	if latency < 20 || latency > 400 {
		t.Errorf("zero-load latency = %d cycles, outside sanity range", latency)
	}
}

// TestSimulatorMatchesWalk: the set of channels a packet traverses in the
// cycle simulator must match the route enumerator exactly (they share the
// same transition functions, but this guards the component wiring).
func TestSimulatorMatchesWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		m := MustNew(DefaultConfig(topo.Shape3(4, 3, 2)))
		n := m.Topo.NumNodes()
		src := topo.NodeEp{Node: rng.Intn(n), Ep: rng.Intn(topo.NumEndpoints)}
		dst := topo.NodeEp{Node: rng.Intn(n), Ep: rng.Intn(topo.NumEndpoints)}
		c := route.RandomChoices(rng)
		want := route.Walk(m.RouteConfig(), src, dst, c.Order, c.Slice, c.Ties, route.ClassReply)

		p := m.MakePacket(src, dst, c, route.ClassReply, 0, 1)
		m.Endpoint(src).Inject(p)
		if _, err := m.RunUntilDelivered(1, 100_000); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Every walk channel must have carried exactly one flit; all
		// others none.
		used := map[int]bool{}
		for _, h := range want {
			used[h.Chan] = true
		}
		for id, ch := range m.chans {
			switch {
			case used[id] && ch.Sent != 1:
				t.Errorf("trial %d: channel %s carried %d flits, want 1", trial, ch.Name, ch.Sent)
			case !used[id] && ch.Sent != 0:
				t.Errorf("trial %d: channel %s carried %d flits, want 0 (not on route)", trial, ch.Name, ch.Sent)
			}
		}
	}
}

func TestManyPacketsAllDelivered(t *testing.T) {
	cfg := DefaultConfig(topo.Shape3(3, 3, 2))
	m := MustNew(cfg)
	rng := rand.New(rand.NewSource(4))
	pat := traffic.Uniform{}
	cores := m.Topo.Chip.CoreEndpoints()
	total := uint64(0)
	for n := 0; n < m.Topo.NumNodes(); n++ {
		for _, ep := range cores {
			src := topo.NodeEp{Node: n, Ep: ep}
			for i := 0; i < 20; i++ {
				dst := pat.Dest(m.Topo, src, rng)
				m.Endpoint(src).Inject(m.MakeRandomPacket(src, dst, route.ClassRequest, 0, rng))
				total++
			}
		}
	}
	end, err := m.RunUntilDelivered(total, 2_000_000)
	if err != nil {
		t.Fatalf("after %d/%d deliveries: %v", m.Delivered(), total, err)
	}
	if m.Delivered() != total {
		t.Fatalf("delivered %d, want %d", m.Delivered(), total)
	}
	t.Logf("delivered %d packets in %d cycles", total, end)
}

// TestDeterminism: identical configurations and injections produce identical
// completion times and per-channel flit counts.
func TestDeterminism(t *testing.T) {
	run := func() (uint64, uint64) {
		m := MustNew(DefaultConfig(topo.Shape3(2, 2, 2)))
		rng := rand.New(rand.NewSource(77))
		cores := m.Topo.Chip.CoreEndpoints()
		total := uint64(0)
		for n := 0; n < m.Topo.NumNodes(); n++ {
			for _, ep := range cores {
				src := topo.NodeEp{Node: n, Ep: ep}
				for i := 0; i < 10; i++ {
					dst := traffic.Uniform{}.Dest(m.Topo, src, rng)
					m.Endpoint(src).Inject(m.MakeRandomPacket(src, dst, route.ClassRequest, 0, rng))
					total++
				}
			}
		}
		end, err := m.RunUntilDelivered(total, 1_000_000)
		if err != nil {
			t.Fatal(err)
		}
		var sum uint64
		for _, ch := range m.chans {
			sum += ch.Sent * uint64(ch.ID+1)
		}
		return end, sum
	}
	e1, s1 := run()
	e2, s2 := run()
	if e1 != e2 || s1 != s2 {
		t.Fatalf("nondeterministic: (%d,%d) vs (%d,%d)", e1, s1, e2, s2)
	}
}

// TestSaturationNoDeadlock floods the network far beyond saturation with
// round-robin arbiters and checks that every packet is still delivered (the
// runtime counterpart of the static deadlock analysis).
func TestSaturationNoDeadlock(t *testing.T) {
	for _, scheme := range []route.Strategy{route.AntonScheme{}, route.BaselineScheme{}} {
		cfg := DefaultConfig(topo.Shape3(4, 4, 2))
		cfg.Scheme = scheme
		m := MustNew(cfg)
		rng := rand.New(rand.NewSource(13))
		cores := m.Topo.Chip.CoreEndpoints()
		total := uint64(0)
		for n := 0; n < m.Topo.NumNodes(); n++ {
			for _, ep := range cores {
				src := topo.NodeEp{Node: n, Ep: ep}
				for i := 0; i < 64; i++ {
					dst := traffic.Uniform{}.Dest(m.Topo, src, rng)
					cls := route.ClassRequest
					if i%2 == 1 {
						cls = route.ClassReply
					}
					m.Endpoint(src).Inject(m.MakeRandomPacket(src, dst, cls, 0, rng))
					total++
				}
			}
		}
		if _, err := m.RunUntilDelivered(total, 5_000_000); err != nil {
			t.Fatalf("scheme %s: %v (delivered %d/%d)", scheme.Name(), err, m.Delivered(), total)
		}
	}
}

// TestInverseWeightedMachineRuns builds uniform-pattern weights and runs a
// saturated burst through inverse-weighted arbiters.
func TestInverseWeightedMachineRuns(t *testing.T) {
	m := MustNew(inverseWeighted(DefaultConfig(topo.Shape3(2, 2, 2))))

	rng := rand.New(rand.NewSource(5))
	total := uint64(0)
	for n := 0; n < m.Topo.NumNodes(); n++ {
		for _, ep := range m.Topo.Chip.CoreEndpoints() {
			src := topo.NodeEp{Node: n, Ep: ep}
			for i := 0; i < 32; i++ {
				dst := traffic.Uniform{}.Dest(m.Topo, src, rng)
				m.Endpoint(src).Inject(m.MakeRandomPacket(src, dst, route.ClassRequest, 0, rng))
				total++
			}
		}
	}
	if _, err := m.RunUntilDelivered(total, 5_000_000); err != nil {
		t.Fatal(err)
	}
}

// TestTwoFlitPackets exercises multi-flit occupancy and credit accounting.
func TestTwoFlitPackets(t *testing.T) {
	m := MustNew(DefaultConfig(topo.Shape3(2, 2, 2)))
	rng := rand.New(rand.NewSource(3))
	total := uint64(0)
	for n := 0; n < m.Topo.NumNodes(); n++ {
		src := topo.NodeEp{Node: n, Ep: 0}
		for i := 0; i < 16; i++ {
			dst := traffic.Uniform{}.Dest(m.Topo, src, rng)
			p := m.MakePacket(src, dst, route.RandomChoices(rng), route.ClassRequest, 0, 2)
			m.Endpoint(src).Inject(p)
			total++
		}
	}
	if _, err := m.RunUntilDelivered(total, 1_000_000); err != nil {
		t.Fatal(err)
	}
}

func TestMachineRejectsIWWithoutWeights(t *testing.T) {
	cfg := DefaultConfig(topo.Shape3(2, 2, 2))
	cfg.Arbiter = arbiter.KindInverseWeighted
	if _, err := New(cfg); err == nil {
		t.Fatal("expected error for IW arbitration without weights")
	}
}

func TestCycleConversions(t *testing.T) {
	if ns := CyclesToNS(1); ns < 0.66 || ns > 0.67 {
		t.Errorf("1 cycle = %f ns, want ~0.667", ns)
	}
	if ns := CyclesToNS(1500); ns < 999 || ns > 1001 {
		t.Errorf("1500 cycles = %f ns, want ~1000 (1.5 GHz)", ns)
	}
}

// newTestRNG and randomOtherCore are shared helpers for traffic-driving
// tests.
func newTestRNG() *rand.Rand { return rand.New(rand.NewSource(99)) }

func randomOtherCore(tm *topo.Machine, src topo.NodeEp, rng *rand.Rand) topo.NodeEp {
	cores := tm.Chip.CoreEndpoints()
	n := rng.Intn(tm.NumNodes() - 1)
	if n >= src.Node {
		n++
	}
	return topo.NodeEp{Node: n, Ep: cores[rng.Intn(len(cores))]}
}

// TestReplyClassIsolation: request and reply packets use disjoint physical
// VC ranges on every channel.
func TestReplyClassIsolation(t *testing.T) {
	m := MustNew(DefaultConfig(topo.Shape3(3, 2, 2)))
	rng := rand.New(rand.NewSource(21))
	scheme := m.Cfg.Scheme
	for i := 0; i < 200; i++ {
		src := topo.NodeEp{Node: rng.Intn(m.Topo.NumNodes()), Ep: 0}
		dst := randomOtherCore(m.Topo, src, rng)
		cls := route.Class(rng.Intn(2))
		c := route.RandomChoices(rng)
		for _, h := range route.Walk(m.RouteConfig(), src, dst, c.Order, c.Slice, c.Ties, cls) {
			g := m.Topo.ChanGroup(h.Chan)
			phys := route.PhysVC(scheme, g, cls, h.VC)
			per := route.ChannelVCs(scheme, g)
			if cls == route.ClassRequest && phys >= per {
				t.Fatalf("request packet on reply VC %d", phys)
			}
			if cls == route.ClassReply && phys < per {
				t.Fatalf("reply packet on request VC %d", phys)
			}
		}
	}
}
