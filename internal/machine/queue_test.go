package machine

import (
	"fmt"
	"testing"

	"anton2/internal/packet"
	"anton2/internal/topo"
)

// queueLinkErrors walks every VC queue of the machine through its packet
// links and checks the lists against what the components keep beside them:
// a list's length sums to its component's queued count and is non-zero
// exactly while its occupancy bit is set, its flits fit the input buffer,
// its walk ends at last with last.Next nil, and no packet is reachable from
// two queues.
func (m *Machine) queueLinkErrors() []string {
	var errs []string
	owner := map[*packet.Packet]string{}
	// list walks one queue and returns its packet count, or -1 when the walk
	// is broken.
	list := func(who string, vc int, q *vcq, occ uint32, buf int) int {
		n, flits := 0, 0
		var last *packet.Packet
		for p := q.first; p != nil; p = p.Next {
			if prev, ok := owner[p]; ok {
				errs = append(errs, fmt.Sprintf("%s VC %d: packet %v is also reachable from %s", who, vc, p, prev))
				return -1
			}
			owner[p] = fmt.Sprintf("%s VC %d", who, vc)
			n, flits, last = n+1, flits+int(p.Size), p
		}
		switch {
		case last != q.last:
			errs = append(errs, fmt.Sprintf("%s VC %d: the walk from first ends at %v, last is %v", who, vc, last, q.last))
		case q.last != nil && q.last.Next != nil:
			errs = append(errs, fmt.Sprintf("%s VC %d: last.Next is %v", who, vc, q.last.Next))
		case (n > 0) != (occ>>vc&1 != 0):
			errs = append(errs, fmt.Sprintf("%s VC %d: %d packets, occupancy bit %d", who, vc, n, occ>>vc&1))
		case flits != q.flits() || flits > buf:
			errs = append(errs, fmt.Sprintf("%s VC %d: %d flits walked, flits() %d, buffer %d", who, vc, flits, q.flits(), buf))
		}
		return n
	}
	set := func(who string, s *vcset, buf int) int {
		total := 0
		for vc := range s.vcs {
			n := list(who, vc, &s.vcs[vc], s.occ, buf)
			if n < 0 {
				return -1
			}
			total += n
		}
		return total
	}
	for i := range m.nodes {
		node := &m.nodes[i]
		for ri, r := range node.Routers {
			who, total := fmt.Sprintf("node %d router %d", node.ID, ri), 0
			for pi := range r.ports {
				n := set(fmt.Sprintf("%s port %d", who, pi), &r.ports[pi].vcset, r.ports[pi].in.BufFlits())
				if n < 0 {
					return errs
				}
				total += n
			}
			if total != r.queued {
				errs = append(errs, fmt.Sprintf("%s: %d packets in its lists, queued %d", who, total, r.queued))
			}
		}
		for ai, a := range node.Adapters {
			who := fmt.Sprintf("node %d adapter %d", node.ID, ai)
			eg := set(who+" egress", &a.eg, a.fromRouter.BufFlits())
			ing := set(who+" ingress", &a.ing, a.torusIn.BufFlits())
			if eg < 0 || ing < 0 {
				return errs
			}
			if eg+ing != a.queued {
				errs = append(errs, fmt.Sprintf("%s: %d packets in its lists, queued %d", who, eg+ing, a.queued))
			}
		}
	}
	return errs
}

// TestQueueLinksConsistent steps a 4x4x2 run that mixes multicast trees with
// the transient-fault go-back-N links (whose replays send the same *Packet
// again) one cycle at a time, serially and on two shards, and checks every
// VC queue's links after each cycle.
func TestQueueLinksConsistent(t *testing.T) {
	sc := maskScenario{withFault: true, mcast: true}
	for name, shards := range map[string]int{"serial": 0, "sharded": 2} {
		m := buildForTest(sc.config(topo.Shape3(4, 4, 2), EngineActive, shards))
		total := sc.inject(m)
		longest := 0
		for m.Delivered() < total {
			if m.Engine.Now() > 200_000 {
				t.Fatalf("%s: run did not finish (delivered %d/%d)", name, m.Delivered(), total)
			}
			m.Engine.Run(1)
			if errs := m.queueLinkErrors(); errs != nil {
				t.Fatalf("%s: after cycle %d: %d queue errors, first: %s", name, m.Engine.Now()-1, len(errs), errs[0])
			}
			for i := range m.nodes {
				for _, a := range m.nodes[i].Adapters {
					for vc := range a.eg.vcs {
						longest = max(longest, a.eg.vcs[vc].count())
					}
				}
			}
		}
		if cnt := m.flt.counters(); longest < 2 || cnt.Retransmits == 0 {
			t.Errorf("%s: the run never queued two packets on one adapter VC (longest %d) or never resent a frame (%d)", name, longest, cnt.Retransmits)
		}
	}
}
