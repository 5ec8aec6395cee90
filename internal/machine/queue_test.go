package machine

import (
	"fmt"
	"testing"

	"anton2/internal/packet"
	"anton2/internal/topo"
)

// listLoc names a packet list for queueLinkErrors' messages without
// formatting one per list per cycle: the list kind, node, component, router
// port (-1 where there is none) and VC (-1 where there is none).
type listLoc struct {
	kind             string
	node, comp, port int
	vc               int
}

func (l listLoc) String() string {
	s := fmt.Sprintf("node %d %s %d", l.node, l.kind, l.comp)
	if l.port >= 0 {
		s += fmt.Sprintf(" port %d", l.port)
	}
	if l.vc >= 0 {
		s += fmt.Sprintf(" VC %d", l.vc)
	}
	return s
}

// queueLinkErrors walks every packet list of the machine through its links —
// the VC queues, the ingress multicast branch lists, the endpoint injection
// queues and the shards' free lists — and checks the lists against what the
// machine keeps beside them: a VC queue's length sums to its component's
// queued count and is non-zero exactly while its occupancy bit is set, and
// its flits fit the input buffer; a branch list is non-empty only behind a
// routed multicast head; an injection queue's length is its endpoint's
// queued count; the lists the components hold sum to queuedPackets; a
// FIFO's walk ends at last with last.Next nil; and no packet is reachable
// from two lists, pooled ones included.
func (m *Machine) queueLinkErrors() []string {
	var errs []string
	fail := func(at listLoc, format string, args ...any) {
		errs = append(errs, at.String()+": "+fmt.Sprintf(format, args...))
	}
	owner := map[*packet.Packet]listLoc{}
	// walk follows the links from first and returns the packet count, the
	// flits and the last packet, or n = -1 when it reaches a packet twice.
	walk := func(at listLoc, first *packet.Packet) (n, flits int, last *packet.Packet) {
		for p := first; p != nil; p = p.Next {
			if prev, ok := owner[p]; ok {
				fail(at, "packet %v is also reachable from %v", p, prev)
				return -1, 0, nil
			}
			owner[p] = at
			n, flits, last = n+1, flits+int(p.Size), p
		}
		return n, flits, last
	}
	// list walks a FIFO and returns its packet count and flits, or n = -1
	// when the walk is broken.
	list := func(at listLoc, l *pktList) (n, flits int) {
		n, flits, last := walk(at, l.first)
		switch {
		case n < 0:
		case last != l.last:
			fail(at, "the walk from first ends at %v, last is %v", last, l.last)
		case l.last != nil && l.last.Next != nil:
			fail(at, "last.Next is %v", l.last.Next)
		default:
			return n, flits
		}
		return -1, 0
	}
	// set walks a VC queue set and, when branches is non-nil, its branch
	// lists; it returns the queued and the branch packet counts, or -1.
	set := func(at listLoc, s *vcset, branches []pktList, buf int) (queued, branched int) {
		for vc := range s.vcs {
			q := &s.vcs[vc]
			at.vc = vc
			n, flits := list(at, &q.pktList)
			switch {
			case n < 0:
				return -1, 0
			case (n > 0) != (s.occ>>vc&1 != 0):
				fail(at, "%d packets, occupancy bit %d", n, s.occ>>vc&1)
			case flits != q.flits() || flits > buf:
				fail(at, "%d flits walked, flits() %d, buffer %d", flits, q.flits(), buf)
			}
			queued += n
			if branches == nil {
				continue
			}
			bat := at
			bat.kind += " branches"
			b, _ := list(bat, &branches[vc])
			switch {
			case b < 0:
				return -1, 0
			case b > 0 && (q.out == nil || q.first.MGroup < 0):
				fail(bat, "%d branches behind a head that is not a routed multicast", b)
			}
			branched += b
		}
		return queued, branched
	}
	census := 0
	for i := range m.nodes {
		node := &m.nodes[i]
		for ri, r := range node.Routers {
			total := 0
			for pi := range r.ports {
				n, _ := set(listLoc{"router", node.ID, ri, pi, -1}, &r.ports[pi].vcset, nil, r.ports[pi].in.BufFlits())
				if n < 0 {
					return errs
				}
				total += n
			}
			if total != r.queued {
				fail(listLoc{"router", node.ID, ri, -1, -1}, "%d packets in its lists, queued %d", total, r.queued)
			}
			census += total
		}
		for ai, a := range node.Adapters {
			eg, _ := set(listLoc{"adapter egress", node.ID, ai, -1, -1}, &a.eg, nil, a.fromRouter.BufFlits())
			ing, br := set(listLoc{"adapter ingress", node.ID, ai, -1, -1}, &a.ing, a.branches, a.torusIn.BufFlits())
			if eg < 0 || ing < 0 {
				return errs
			}
			if eg+ing != a.queued {
				fail(listLoc{"adapter", node.ID, ai, -1, -1}, "%d packets in its lists, queued %d", eg+ing, a.queued)
			}
			census += eg + ing + br
		}
		for ei, e := range node.Endpoints {
			at := listLoc{"endpoint injection", node.ID, ei, -1, -1}
			n, _ := list(at, &e.inj)
			if n < 0 {
				return errs
			}
			if n != e.queued {
				fail(at, "%d packets in its list, queued %d", n, e.queued)
			}
			census += n
		}
	}
	if q := m.queuedPackets(); census != q {
		errs = append(errs, fmt.Sprintf("%d packets in component lists, queuedPackets %d", census, q))
	}
	for si := range m.shards {
		if n, _, _ := walk(listLoc{"shard free list", -1, si, -1, -1}, m.shards[si].pool); n < 0 {
			return errs
		}
	}
	return errs
}

// TestQueueLinksConsistent steps 4x4x2 runs that mix multicast trees with
// unicast batches one cycle at a time, serially and on two shards, and checks
// every packet list's links after each cycle: once with the transient-fault
// go-back-N links (whose replays send the same *Packet again), and once
// without them, where delivered and replicated packets go back to the free
// lists and are reused.
func TestQueueLinksConsistent(t *testing.T) {
	for _, withFault := range []bool{true, false} {
		sc := maskScenario{withFault: withFault, mcast: true}
		for name, shards := range map[string]int{"serial": 0, "sharded": 2} {
			name = fmt.Sprintf("fault=%v/%s", withFault, name)
			m := buildForTest(sc.config(topo.Shape3(4, 4, 2), EngineActive, shards))
			total := sc.inject(m)
			var adapterVC, branches, injection, pooled int
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
							adapterVC = max(adapterVC, a.eg.vcs[vc].count())
							branches = max(branches, a.branches[vc].count())
						}
					}
					for _, e := range m.nodes[i].Endpoints {
						injection = max(injection, e.queued)
					}
				}
				for si := range m.shards {
					for p := m.shards[si].pool; p != nil; p = p.Next {
						pooled++
					}
				}
			}
			if adapterVC < 2 || branches < 2 || injection < 2 {
				t.Errorf("%s: the longest adapter VC queue, branch list and injection queue held %d, %d and %d packets, want two or more each", name, adapterVC, branches, injection)
			}
			if withFault {
				if cnt := m.flt.counters(); cnt.Retransmits == 0 {
					t.Errorf("%s: the run never resent a frame", name)
				}
			} else if pooled == 0 {
				t.Errorf("%s: no packet ever reached a free list", name)
			}
		}
	}
}
