package machine

import (
	"fmt"

	"anton2/internal/arbiter"
	"anton2/internal/fabric"
	"anton2/internal/fault"
	"anton2/internal/packet"
	"anton2/internal/route"
	"anton2/internal/topo"
)

// This file externalizes the machine's complete mutable state for
// checkpointing. A Snapshot taken between engine steps, restored into a
// freshly built machine with the same Config, continues the simulation
// bit-identically to the uninterrupted run — across engine modes and shard
// counts, because between steps all staged cross-shard traffic has been
// flushed and snapshots are therefore engine- and shard-invariant.
//
// Packets are interned into a registry by pointer identity: the same
// *packet.Packet may legally sit in a retransmission window and in a channel
// pipe at once (go-back-N Resend), and collapsing such aliases on restore is
// required for the link layer to release the right buffers. The registry is
// built by traversing holders in a fixed order (per node: routers, adapters,
// endpoints; then channels; then retransmission windows), so snapshot
// encoding is deterministic.
//
// Out of scope by design: the free-packet pool (unobservable — pooled
// packets are fully Reset on reuse and IDs come from NextID), the invariant
// suite and telemetry (Snapshot refuses to run with either attached), and
// per-packet traces (refused likewise; tracing is a diagnostic mode).

// PacketState is one registered packet's full field set.
type PacketState struct {
	ID          uint64      `json:"id"`
	Src         topo.NodeEp `json:"src"`
	Dst         topo.NodeEp `json:"dst"`
	Size        uint8       `json:"size"`
	Route       route.State `json:"route"`
	PatternID   uint8       `json:"pattern,omitempty"`
	MGroup      int         `json:"mgroup"`
	CurVC       uint8       `json:"cur_vc"`
	InjectedAt  uint64      `json:"injected_at"`
	DeliveredAt uint64      `json:"delivered_at,omitempty"`
	ArrivedAt   uint64      `json:"arrived_at,omitempty"`
	NotBefore   uint64      `json:"not_before,omitempty"`
	TorusHops   uint8       `json:"torus_hops,omitempty"`
	Payload     []byte      `json:"payload,omitempty"`
	SourceRoute []uint8     `json:"source_route,omitempty"`
	SRIdx       int         `json:"sr_idx,omitempty"`
	Circulate   bool        `json:"circulate,omitempty"`
}

// VCQState is one virtual-channel queue: packet registry indices plus the
// head-of-line route decision.
type VCQState struct {
	Pkts     []int  `json:"pkts,omitempty"`
	Routed   bool   `json:"routed,omitempty"`
	OutPort  int8   `json:"out_port,omitempty"`
	OutVC    uint8  `json:"out_vc,omitempty"`
	ReadyAt  uint64 `json:"ready_at,omitempty"`
	Branches []int  `json:"branches,omitempty"`
}

// RouterState is one mesh router's queues, arbitration positions, and
// crossbar occupancy.
type RouterState struct {
	Ports  [][]VCQState    `json:"ports"`
	SA1    []arbiter.State `json:"sa1"`
	SA2    []arbiter.State `json:"sa2"`
	InBusy []uint64        `json:"in_busy"`
	Queued int             `json:"queued,omitempty"`
}

// AdapterState is one channel adapter's queues, arbitration positions, and
// diagnostic counters.
type AdapterState struct {
	Eg        []VCQState    `json:"eg"`
	Ing       []VCQState    `json:"ing"`
	EgArb     arbiter.State `json:"eg_arb"`
	InArb     arbiter.State `json:"in_arb"`
	Queued    int           `json:"queued,omitempty"`
	EgSent    uint64        `json:"eg_sent,omitempty"`
	EgStarved uint64        `json:"eg_starved,omitempty"`
	InSent    uint64        `json:"in_sent,omitempty"`
	InStarved uint64        `json:"in_starved,omitempty"`
}

// EndpointState is one endpoint adapter's software injection queue and send
// pipeline position. Source and OnDeliver closures cannot be serialized; the
// driver that owns them records its own progress and reinstalls them after
// Restore.
type EndpointState struct {
	SWQ   []int  `json:"swq,omitempty"`
	Sched uint64 `json:"sched,omitempty"`
}

// NodeState groups one node's component states in registration order.
type NodeState struct {
	Routers   []RouterState   `json:"routers"`
	Adapters  []AdapterState  `json:"adapters"`
	Endpoints []EndpointState `json:"endpoints"`
}

// WinEntryState is one unacknowledged frame in a go-back-N window.
type WinEntryState struct {
	Pkt int   `json:"pkt"`
	VC  uint8 `json:"vc"`
}

// FrameMetaState is the link-layer framing of one in-flight frame.
type FrameMetaState struct {
	Seq     uint64 `json:"seq"`
	VC      uint8  `json:"vc"`
	Corrupt bool   `json:"corrupt,omitempty"`
}

// CtrlEntryState is one in-flight ack/nack on a reverse control pipe.
type CtrlEntryState struct {
	At   uint64 `json:"at"`
	Seq  uint64 `json:"seq"`
	Nack bool   `json:"nack,omitempty"`
}

// RlinkState is one reliable link's protocol position.
type RlinkState struct {
	Snd  fault.SenderState   `json:"snd"`
	Rcv  fault.ReceiverState `json:"rcv"`
	Win  []WinEntryState     `json:"win,omitempty"`
	Meta []FrameMetaState    `json:"meta,omitempty"`
	Ctrl []CtrlEntryState    `json:"ctrl,omitempty"`
}

// FaultState is the fault layer's mutable state: injector stream positions,
// machine-wide counters (per-shard slots are summed — the split is a
// performance artifact, not simulation state), and per-link protocol state
// (nil entries are permanently failed links, re-derived from the seed).
type FaultState struct {
	Streams  fault.InjectorState `json:"streams"`
	Counters fault.Counters      `json:"counters"`
	Rlinks   []*RlinkState       `json:"rlinks"`
}

// Snapshot is the machine's complete mutable state at cycle Now, where Now is
// the next cycle the engine would process.
type Snapshot struct {
	Now       uint64                `json:"now"`
	Injected  uint64                `json:"injected"`
	Delivered uint64                `json:"delivered"`
	NextID    uint64                `json:"next_id"`
	Packets   []PacketState         `json:"packets"`
	Nodes     []NodeState           `json:"nodes"`
	Chans     []fabric.ChannelState `json:"chans"`
	Fault     *FaultState           `json:"fault,omitempty"`
}

// pktRegistry interns packets by pointer identity in first-seen order.
type pktRegistry struct {
	idx  map[*packet.Packet]int
	list []PacketState
	err  error
}

func (r *pktRegistry) intern(p *packet.Packet) int {
	if i, ok := r.idx[p]; ok {
		return i
	}
	i := len(r.list)
	r.idx[p] = i
	if p.Trace != nil && r.err == nil {
		r.err = fmt.Errorf("machine: packet %d has tracing enabled; traced runs cannot be checkpointed", p.ID)
	}
	r.list = append(r.list, PacketState{
		ID: p.ID, Src: p.Src, Dst: p.Dst, Size: p.Size,
		Route: p.Route, PatternID: p.PatternID, MGroup: p.MGroup, CurVC: p.CurVC,
		InjectedAt: p.InjectedAt, DeliveredAt: p.DeliveredAt, ArrivedAt: p.ArrivedAt,
		NotBefore: p.NotBefore, TorusHops: p.TorusHops,
		Payload:     append([]byte(nil), p.Payload...),
		SourceRoute: append([]uint8(nil), p.SourceRoute...),
		SRIdx:       p.SRIdx, Circulate: p.Circulate,
	})
	return i
}

func snapVCQ(q *vcq, reg *pktRegistry) VCQState {
	st := VCQState{Routed: q.routed, OutPort: q.outPort, OutVC: q.outVC, ReadyAt: q.readyAt}
	for i := q.head; i < len(q.pkts); i++ {
		st.Pkts = append(st.Pkts, reg.intern(q.pkts[i]))
	}
	for _, b := range q.branches {
		st.Branches = append(st.Branches, reg.intern(b))
	}
	return st
}

// Snapshot captures the machine's complete mutable state. It must be called
// between engine steps (an engine observer is one such place) and refuses to
// run unless the config is Checkpointable, with per-packet tracing active,
// after a fatal fault, or with unflushed cross-shard traffic — the last
// cannot happen between steps, so it is a consistency check.
func (m *Machine) Snapshot() (*Snapshot, error) {
	if err := m.Cfg.Checkpointable(); err != nil {
		return nil, err
	}
	if m.flt != nil && m.flt.fatal != nil {
		return nil, fmt.Errorf("machine: cannot checkpoint after a fatal fault: %w", m.flt.fatal)
	}
	for si := range m.shards {
		if len(m.shards[si].deliv) != 0 {
			return nil, fmt.Errorf("machine: snapshot with pending deferred deliveries")
		}
	}
	s := &Snapshot{
		Now:       m.Engine.Now(),
		Injected:  m.injected,
		Delivered: m.delivered,
		NextID:    m.nextID.Load(),
		Nodes:     make([]NodeState, len(m.nodes)),
	}
	reg := &pktRegistry{idx: make(map[*packet.Packet]int)}
	for ni, node := range m.nodes {
		ns := &s.Nodes[ni]
		ns.Routers = make([]RouterState, len(node.Routers))
		for ri, r := range node.Routers {
			rs := &ns.Routers[ri]
			rs.Ports = make([][]VCQState, len(r.ports))
			rs.SA1 = make([]arbiter.State, len(r.sa1))
			rs.SA2 = make([]arbiter.State, len(r.sa2))
			rs.InBusy = append([]uint64(nil), r.inBusy...)
			rs.Queued = r.queued
			for pi := range r.ports {
				vcs := r.ports[pi].vcs
				qs := make([]VCQState, len(vcs))
				for vci := range vcs {
					qs[vci] = snapVCQ(&vcs[vci], reg)
				}
				rs.Ports[pi] = qs
				var err error
				if rs.SA1[pi], err = arbiter.CaptureState(r.sa1[pi]); err != nil {
					return nil, err
				}
				if rs.SA2[pi], err = arbiter.CaptureState(r.sa2[pi]); err != nil {
					return nil, err
				}
			}
		}
		ns.Adapters = make([]AdapterState, len(node.Adapters))
		for ai, a := range node.Adapters {
			as := &ns.Adapters[ai]
			as.Eg = make([]VCQState, len(a.eg))
			for vci := range a.eg {
				as.Eg[vci] = snapVCQ(&a.eg[vci], reg)
			}
			as.Ing = make([]VCQState, len(a.ing))
			for vci := range a.ing {
				as.Ing[vci] = snapVCQ(&a.ing[vci], reg)
			}
			var err error
			if as.EgArb, err = arbiter.CaptureState(a.egArb); err != nil {
				return nil, err
			}
			if as.InArb, err = arbiter.CaptureState(a.inArb); err != nil {
				return nil, err
			}
			as.Queued = a.queued
			as.EgSent, as.EgStarved = a.EgSent, a.EgStarved
			as.InSent, as.InStarved = a.InSent, a.InStarved
		}
		ns.Endpoints = make([]EndpointState, len(node.Endpoints))
		for ei, e := range node.Endpoints {
			es := &ns.Endpoints[ei]
			for i := e.head; i < len(e.swq); i++ {
				es.SWQ = append(es.SWQ, reg.intern(e.swq[i]))
			}
			es.Sched = e.sched
		}
	}
	s.Chans = make([]fabric.ChannelState, len(m.chans))
	for ci, ch := range m.chans {
		st, err := ch.ExportState(reg.intern)
		if err != nil {
			return nil, err
		}
		s.Chans[ci] = st
	}
	if m.flt != nil {
		f := m.flt
		fs := &FaultState{
			Streams:  f.inj.StreamState(),
			Counters: f.counters(),
			Rlinks:   make([]*RlinkState, len(f.rlinks)),
		}
		for li, rl := range f.rlinks {
			if rl == nil {
				continue
			}
			if len(rl.metaStage) != 0 || len(rl.ctrlStage) != 0 {
				return nil, fmt.Errorf("machine: snapshot with staged link-layer traffic on %s", rl.ch.Name)
			}
			ls := &RlinkState{Snd: rl.snd.State(), Rcv: rl.rcv.State()}
			for _, w := range rl.win {
				ls.Win = append(ls.Win, WinEntryState{Pkt: reg.intern(w.p), VC: w.vc})
			}
			for _, mt := range rl.meta[rl.metaHead:] {
				ls.Meta = append(ls.Meta, FrameMetaState{Seq: mt.seq, VC: mt.vc, Corrupt: mt.corrupt})
			}
			rl.ctrl.Entries(func(at uint64, c linkCtrl) {
				ls.Ctrl = append(ls.Ctrl, CtrlEntryState{At: at, Seq: c.seq, Nack: c.nack})
			})
			fs.Rlinks[li] = ls
		}
		s.Fault = fs
	}
	if reg.err != nil {
		return nil, reg.err
	}
	s.Packets = reg.list
	return s, nil
}

func restoreVCQ(q *vcq, st VCQState, pkt func(int) (*packet.Packet, error)) error {
	q.pkts = q.pkts[:0]
	q.head = 0
	for _, i := range st.Pkts {
		p, err := pkt(i)
		if err != nil {
			return err
		}
		q.pkts = append(q.pkts, p)
	}
	q.routed, q.outPort, q.outVC, q.readyAt = st.Routed, st.OutPort, st.OutVC, st.ReadyAt
	q.branches = nil
	for _, i := range st.Branches {
		b, err := pkt(i)
		if err != nil {
			return err
		}
		q.branches = append(q.branches, b)
	}
	return nil
}

// Restore loads a snapshot into a freshly built machine with the same Config
// (same shape, scheme, seed, fault spec — engine mode and shard count are
// free to differ: snapshots are engine-invariant). It resets the engine clock
// to the snapshot cycle, fills every component (rebuilding the VC-occupancy
// masks from the queues), re-issues the ready bits and wakes implied by
// in-flight traffic, and finally wakes every component once at the restore
// cycle — spurious ticks are no-ops by the active-set contract, so the
// blanket wake restores schedule completeness without affecting results.
func (m *Machine) Restore(s *Snapshot) error {
	if m.Engine.Now() != 0 || m.injected != 0 || m.delivered != 0 {
		return fmt.Errorf("machine: restore requires a freshly built machine")
	}
	if err := m.Cfg.Checkpointable(); err != nil {
		return err
	}
	if len(s.Nodes) != len(m.nodes) {
		return fmt.Errorf("machine: snapshot has %d nodes, machine has %d", len(s.Nodes), len(m.nodes))
	}
	if len(s.Chans) != len(m.chans) {
		return fmt.Errorf("machine: snapshot has %d channels, machine has %d", len(s.Chans), len(m.chans))
	}
	if (s.Fault != nil) != (m.flt != nil) {
		return fmt.Errorf("machine: snapshot and machine disagree on fault injection")
	}

	pkts := make([]*packet.Packet, len(s.Packets))
	for i := range s.Packets {
		ps := &s.Packets[i]
		p := &packet.Packet{
			ID: ps.ID, Src: ps.Src, Dst: ps.Dst, Size: ps.Size,
			Route: ps.Route, PatternID: ps.PatternID, MGroup: ps.MGroup, CurVC: ps.CurVC,
			InjectedAt: ps.InjectedAt, DeliveredAt: ps.DeliveredAt, ArrivedAt: ps.ArrivedAt,
			NotBefore: ps.NotBefore, TorusHops: ps.TorusHops,
			Payload:     append([]byte(nil), ps.Payload...),
			SourceRoute: append([]uint8(nil), ps.SourceRoute...),
			SRIdx:       ps.SRIdx, Circulate: ps.Circulate,
		}
		pkts[i] = p
	}
	pkt := func(i int) (*packet.Packet, error) {
		if i < 0 || i >= len(pkts) {
			return nil, fmt.Errorf("packet index %d outside registry of %d", i, len(pkts))
		}
		return pkts[i], nil
	}

	m.Engine.ResetTo(s.Now)
	m.injected, m.delivered = s.Injected, s.Delivered
	m.nextID.Store(s.NextID)
	for si := range m.shards {
		m.shards[si].pool = m.shards[si].pool[:0]
	}

	for ni, node := range m.nodes {
		ns := &s.Nodes[ni]
		if len(ns.Routers) != len(node.Routers) || len(ns.Adapters) != len(node.Adapters) || len(ns.Endpoints) != len(node.Endpoints) {
			return fmt.Errorf("machine: node %d component counts differ from snapshot", ni)
		}
		for ri, r := range node.Routers {
			rs := &ns.Routers[ri]
			if len(rs.Ports) != len(r.ports) || len(rs.InBusy) != len(r.inBusy) {
				return fmt.Errorf("machine: node %d router %d shape differs from snapshot", ni, ri)
			}
			for pi := range r.ports {
				vcs := r.ports[pi].vcs
				if len(rs.Ports[pi]) != len(vcs) {
					return fmt.Errorf("machine: node %d router %d port %d VC count differs", ni, ri, pi)
				}
				for vci := range vcs {
					if err := restoreVCQ(&vcs[vci], rs.Ports[pi][vci], pkt); err != nil {
						return fmt.Errorf("machine: node %d router %d: %w", ni, ri, err)
					}
				}
				r.ports[pi].occ = occupancy(vcs)
				if err := arbiter.RestoreState(r.sa1[pi], rs.SA1[pi]); err != nil {
					return err
				}
				if err := arbiter.RestoreState(r.sa2[pi], rs.SA2[pi]); err != nil {
					return err
				}
			}
			copy(r.inBusy, rs.InBusy)
			r.queued = rs.Queued
		}
		for ai, a := range node.Adapters {
			as := &ns.Adapters[ai]
			if len(as.Eg) != len(a.eg) || len(as.Ing) != len(a.ing) {
				return fmt.Errorf("machine: node %d adapter %d VC count differs", ni, ai)
			}
			for vci := range a.eg {
				if err := restoreVCQ(&a.eg[vci], as.Eg[vci], pkt); err != nil {
					return fmt.Errorf("machine: node %d adapter %d: %w", ni, ai, err)
				}
			}
			for vci := range a.ing {
				if err := restoreVCQ(&a.ing[vci], as.Ing[vci], pkt); err != nil {
					return fmt.Errorf("machine: node %d adapter %d: %w", ni, ai, err)
				}
			}
			a.egOcc, a.ingOcc = occupancy(a.eg), occupancy(a.ing)
			if err := arbiter.RestoreState(a.egArb, as.EgArb); err != nil {
				return err
			}
			if err := arbiter.RestoreState(a.inArb, as.InArb); err != nil {
				return err
			}
			a.queued = as.Queued
			a.EgSent, a.EgStarved = as.EgSent, as.EgStarved
			a.InSent, a.InStarved = as.InSent, as.InStarved
		}
		for ei, e := range node.Endpoints {
			es := &ns.Endpoints[ei]
			e.swq = e.swq[:0]
			e.head = 0
			for _, i := range es.SWQ {
				p, err := pkt(i)
				if err != nil {
					return fmt.Errorf("machine: node %d endpoint %d: %w", ni, ei, err)
				}
				e.swq = append(e.swq, p)
			}
			e.sched = es.Sched
		}
	}
	for ci, ch := range m.chans {
		if err := ch.RestoreState(s.Chans[ci], pkt); err != nil {
			return err
		}
	}
	if s.Fault != nil {
		f := m.flt
		if err := f.inj.RestoreStreams(s.Fault.Streams); err != nil {
			return err
		}
		if len(s.Fault.Rlinks) != len(f.rlinks) {
			return fmt.Errorf("machine: snapshot has %d reliable links, machine has %d", len(s.Fault.Rlinks), len(f.rlinks))
		}
		// The per-shard counter split is unobservable; the whole restored
		// total goes into the injection slot (counters() sums the slots).
		for i := range f.cnt {
			f.cnt[i] = fault.Counters{}
		}
		f.cnt[f.injSlot()] = s.Fault.Counters
		for li, ls := range s.Fault.Rlinks {
			rl := f.rlinks[li]
			if (ls == nil) != (rl == nil) {
				return fmt.Errorf("machine: snapshot and machine disagree on failed link %d", li)
			}
			if rl == nil {
				continue
			}
			if err := rl.snd.RestoreState(ls.Snd); err != nil {
				return fmt.Errorf("machine: link %s: %w", rl.ch.Name, err)
			}
			rl.rcv.RestoreState(ls.Rcv)
			if uint64(len(ls.Win)) != ls.Snd.Next-ls.Snd.Base {
				return fmt.Errorf("machine: link %s: %d window entries for sequences [%d, %d)", rl.ch.Name, len(ls.Win), ls.Snd.Base, ls.Snd.Next)
			}
			rl.win = rl.win[:0]
			for _, w := range ls.Win {
				p, err := pkt(w.Pkt)
				if err != nil {
					return fmt.Errorf("machine: link %s: %w", rl.ch.Name, err)
				}
				rl.win = append(rl.win, winEntry{p: p, vc: w.VC})
			}
			rl.meta = rl.meta[:0]
			rl.metaHead = 0
			for _, mt := range ls.Meta {
				rl.meta = append(rl.meta, frameMeta{seq: mt.Seq, vc: mt.VC, corrupt: mt.Corrupt})
			}
			for _, c := range ls.Ctrl {
				rl.pushCtrl(c.At, linkCtrl{seq: c.Seq, nack: c.Nack})
			}
		}
	}
	m.Engine.WakeAll()
	return nil
}
