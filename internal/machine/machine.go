package machine

import (
	"fmt"
	"math/rand"
	"sync/atomic"

	"anton2/internal/arbiter"
	"anton2/internal/check"
	"anton2/internal/fabric"
	"anton2/internal/packet"
	"anton2/internal/route"
	"anton2/internal/sim"
	"anton2/internal/telemetry"
	"anton2/internal/topo"
)

// Machine is a fully wired simulated Anton 2 network.
type Machine struct {
	Cfg    Config
	Topo   *topo.Machine
	Engine *sim.Engine

	routeCfg *route.Config
	// faultAware is whether Cfg.Scheme natively routes around failed
	// links (route.FaultRouter) — in which case absorbed link deaths do
	// not degrade the run.
	faultAware bool
	chans      []*fabric.Channel // global channel id -> channel
	nodes      []*Node

	injected  uint64
	delivered uint64

	// nextID numbers packets; it is the one word shard workers share when
	// they allocate (the free lists are per shard).
	nextID atomic.Uint64

	// arena backs the VC queues, port tables and scratch arrays of every
	// router and adapter.
	arena hotArena

	// Sharding state (Cfg.Shards > 1): components are partitioned into
	// contiguous node ranges. The engine steps a dense cycle with one worker
	// goroutine per range — cross-shard channel traffic is then staged and
	// flushed at the phase barrier, and deliveries are deferred per shard
	// and applied at the barrier in component-id order, keeping the cycle
	// bit-identical to a serial one — and a sparse cycle serially, in which
	// nothing is staged or deferred (Engine.Parallel is the switch). An
	// unsharded machine has the one shard 0.
	nodeShard []int32
	shards    []shardState

	// checks is the attached invariant suite, or nil when Cfg.Check is
	// false; every hook site guards on nil so disabled checking costs one
	// predicted branch. tel follows the same discipline for the
	// observability layer, and flt for the fault-injection and
	// reliable-link layer.
	checks *check.Suite
	tel    *telemetry.Collector
	flt    *faultLayer

	// snapTab is AppendSnapshot's packet interning table, kept between
	// snapshots so that taking one allocates nothing.
	snapTab pktTable
}

// Node groups one ASIC's components.
type Node struct {
	ID        int
	Routers   [topo.NumRouters]*Router
	Endpoints [topo.NumEndpoints]*EndpointAdapter
	Adapters  [topo.NumChannelAdapters]*ChannelAdapter
}

// shardState is what one shard's worker owns during a parallel phase: its
// packet free list, and the lists of what it staged for the barrier — the
// deliveries its endpoints deferred and the shard-crossing channels and
// reliable links it staged traffic on. Padded so neighbouring shards' list
// headers never share a cache line.
type shardState struct {
	pool   []*packet.Packet
	deliv  []delivEnt
	chans  fabric.StageList
	rlinks []*rlink
	_      [32]byte
}

// delivEnt is one delivery deferred to the phase barrier of a parallel cycle.
type delivEnt struct {
	e *EndpointAdapter
	p *packet.Packet
}

// New builds and wires a machine.
func New(cfg Config) (*Machine, error) {
	tm, err := topo.NewMachine(cfg.Shape)
	if err != nil {
		return nil, err
	}
	cfg.Scheme = cfg.Strategy()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Arbiter == arbiter.KindInverseWeighted && cfg.Weights == nil {
		return nil, &ConfigError{"Weights", "inverse-weighted arbitration requires a WeightSet"}
	}
	mode := sim.ModeActive
	if cfg.Engine == EngineScan {
		mode = sim.ModeScan
	}
	shards := max(1, min(cfg.Shards, tm.NumNodes()))
	m := &Machine{
		Cfg:      cfg,
		Topo:     tm,
		Engine:   sim.NewEngineMode(mode),
		routeCfg: cfg.RouteConfig(tm),
	}
	_, m.faultAware = cfg.Scheme.(route.FaultRouter)
	// Balanced contiguous node partition: shard s owns nodes
	// [s*base + min(s, extra), ...); contiguous node ranges mean contiguous
	// component-id ranges, which is what the engine shards over.
	m.shards = make([]shardState, shards)
	m.nodeShard = make([]int32, tm.NumNodes())
	base, extra := tm.NumNodes()/shards, tm.NumNodes()%shards
	n := 0
	for s := 0; s < shards; s++ {
		cnt := base
		if s < extra {
			cnt++
		}
		for i := 0; i < cnt; i++ {
			m.nodeShard[n] = int32(s)
			n++
		}
	}
	m.arena = newArena(m)

	// Channels.
	m.chans = make([]*fabric.Channel, tm.NumChannels())
	for n := 0; n < tm.NumNodes(); n++ {
		for ci := range tm.Chip.IntraChans {
			ch := &tm.Chip.IntraChans[ci]
			id := tm.IntraChanID(n, ci)
			m.chans[id] = fabric.New(fabric.Config{
				ID:            id,
				Name:          fmt.Sprintf("n%d:%s", n, ch.Name),
				Group:         ch.Group,
				Latency:       topo.MeshLatency,
				RateMilli:     fabric.MeshRateMilli,
				NumVCs:        route.TotalVCs(cfg.Scheme, ch.Group),
				BufFlits:      topo.MeshVCBuf,
				CreditLatency: topo.CreditLatency,
				TrackEnergy:   cfg.TrackEnergy,
			})
		}
		for ai := 0; ai < topo.NumChannelAdapters; ai++ {
			ad := topo.AdapterByIndex(ai)
			id := tm.TorusChanID(n, ad.Dir, ad.Slice)
			lat := uint64(topo.TorusLatency)
			if cfg.LinkLatency != nil {
				lat = cfg.LinkLatency(n, ad)
			}
			m.chans[id] = fabric.New(fabric.Config{
				ID:            id,
				Name:          fmt.Sprintf("n%d:torus:%s", n, ad),
				Group:         topo.GroupT,
				Latency:       lat,
				RateMilli:     topo.TorusRateMilli,
				NumVCs:        route.TotalVCs(cfg.Scheme, topo.GroupT),
				BufFlits:      topo.TorusVCBuf,
				CreditLatency: topo.CreditLatency,
				TrackEnergy:   cfg.TrackEnergy,
			})
		}
	}

	// Fault layer, before the components: it must exist when the channel
	// adapters bind their reliable-link state, and it ticks first each
	// cycle so stall transitions and credit resyncs precede all adapters.
	if cfg.Fault != nil {
		m.flt = newFaultLayer(m, *cfg.Fault)
		m.flt.cid = m.Engine.Register(m.flt)
	}

	// Components, registered in a fixed order for determinism; each records
	// its engine id and shard and binds its channels for active-set wakeups.
	m.nodes = make([]*Node, tm.NumNodes())
	for n := 0; n < tm.NumNodes(); n++ {
		node := &Node{ID: n}
		m.nodes[n] = node
		sh := m.nodeShard[n]
		for ri := 0; ri < topo.NumRouters; ri++ {
			r := newRouter(m, n, topo.RouterCoord(ri))
			node.Routers[ri] = r
			r.cid, r.shard = m.Engine.Register(r), sh
			r.bind()
		}
		for ai := 0; ai < topo.NumChannelAdapters; ai++ {
			a := newChannelAdapter(m, n, topo.AdapterByIndex(ai))
			node.Adapters[ai] = a
			a.cid, a.shard = m.Engine.Register(a), sh
			a.bind()
		}
		for ep := 0; ep < topo.NumEndpoints; ep++ {
			e := newEndpoint(m, n, ep)
			node.Endpoints[ep] = e
			e.cid, e.shard = m.Engine.Register(e), sh
			e.bind()
		}
	}

	// The fault layer is the serial prefix: it ticks before the rest of the
	// active set (matching its first-registered position in scan mode), and
	// its same-cycle effects — stall onsets, credit-resync restores — stay
	// visible to adapters ticking in the same cycle.
	prefix := 0
	if m.flt != nil {
		prefix = 1
	}
	m.Engine.SetSerialPrefix(prefix)

	if shards > 1 {
		perNode := topo.NumRouters + topo.NumChannelAdapters + topo.NumEndpoints
		ranges := make([]sim.ShardRange, 0, shards)
		lo := 0
		for n := 1; n <= tm.NumNodes(); n++ {
			if n == tm.NumNodes() || m.nodeShard[n] != m.nodeShard[lo] {
				ranges = append(ranges, sim.ShardRange{Lo: prefix + lo*perNode, Hi: prefix + n*perNode})
				lo = n
			}
		}
		m.Engine.ConfigureShards(ranges, prefix, m.merge)
		// Torus channels whose endpoints land in different shards stage
		// their traffic during a parallel phase; everything else stays
		// direct.
		for n := 0; n < tm.NumNodes(); n++ {
			for ai := 0; ai < topo.NumChannelAdapters; ai++ {
				ad := topo.AdapterByIndex(ai)
				id := tm.TorusChanID(n, ad.Dir, ad.Slice)
				u := tm.Shape.NodeID(tm.Shape.Neighbor(tm.Shape.Coord(n), ad.Dir))
				snd, recv := &m.shards[m.nodeShard[n]], &m.shards[m.nodeShard[u]]
				if m.flt != nil {
					m.flt.recvShard[id-m.flt.torusBase] = m.nodeShard[u]
				}
				if snd != recv {
					m.chans[id].SetDeferred(&snd.chans, &recv.chans)
					if m.flt != nil {
						if rl := m.flt.rlinkFor(id); rl != nil {
							rl.sndStage, rl.recvStage = &snd.rlinks, &recv.rlinks
						}
					}
				}
			}
		}
	}

	if cfg.Check {
		m.checks = check.NewSuite(check.Env{
			Route:    m.routeCfg,
			Channels: m.chans,
			Queued:   m.queuedPackets,
		})
		m.Engine.Observe(1, m.checks.Observe)
	}
	if cfg.Telemetry != nil {
		env := telemetry.Env{
			Topo:            tm,
			Channels:        m.chans,
			MaxVCs:          route.MaxTotalVCs(cfg.Scheme),
			CyclePS:         CyclePS,
			ScanVCOccupancy: m.scanVCOccupancy,
		}
		if m.flt != nil {
			env.FaultCounters = func() map[string]uint64 {
				c := m.flt.counters()
				return c.Map()
			}
		}
		m.tel = telemetry.NewCollector(env, *cfg.Telemetry)
		// Observe(0) samples nothing and names the first window boundary.
		m.Engine.Observe(m.tel.Observe(0), m.tel.Observe)
	}
	if cfg.Progress != nil {
		m.Engine.Observe(ProgressCycles, func(now uint64) uint64 {
			cfg.Progress(now)
			return now + ProgressCycles - now%ProgressCycles
		})
	}
	// The detail provider runs only on the watchdog failure path, so
	// attaching it unconditionally costs nothing on healthy runs.
	m.Engine.DeadlockDetail = m.deadlockDetail
	return m, nil
}

// MustNew is New for known-good configurations.
func MustNew(cfg Config) *Machine {
	m, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// RouteConfig exposes the routing configuration (shared with loadcalc and
// the deadlock analyzer).
func (m *Machine) RouteConfig() *route.Config { return m.routeCfg }

// Node returns a node by dense id.
func (m *Machine) Node(id int) *Node { return m.nodes[id] }

// Endpoint returns an endpoint adapter.
func (m *Machine) Endpoint(ne topo.NodeEp) *EndpointAdapter {
	return m.nodes[ne.Node].Endpoints[ne.Ep]
}

// Chan returns a channel by global id.
func (m *Machine) Chan(id int) *fabric.Channel { return m.chans[id] }

// newArbiter builds one arbitration point of the configured flavor.
func (m *Machine) newArbiter(k int, weights [][arbiter.NumPatterns]uint32) arbiter.Arbiter {
	if m.Cfg.Arbiter == arbiter.KindInverseWeighted {
		if weights == nil {
			weights = arbiter.UniformWeights(k)
		}
		return arbiter.NewInverseWeighted(k, weights)
	}
	return arbiter.NewRoundRobin(k)
}

func (m *Machine) sa1Weights(router, port, k int) [][arbiter.NumPatterns]uint32 {
	if m.Cfg.Weights == nil {
		return nil
	}
	return clipWeights(m.Cfg.Weights.SA1[router][port], k)
}

func (m *Machine) sa2Weights(router, port, k int) [][arbiter.NumPatterns]uint32 {
	if m.Cfg.Weights == nil {
		return nil
	}
	return clipWeights(m.Cfg.Weights.SA2[router][port], k)
}

func (m *Machine) adapterWeights(egress bool, id topo.AdapterID, k int) [][arbiter.NumPatterns]uint32 {
	if m.Cfg.Weights == nil {
		return nil
	}
	if egress {
		return clipWeights(m.Cfg.Weights.AdEg[id.Index()], k)
	}
	return clipWeights(m.Cfg.Weights.AdIn[id.Index()], k)
}

func clipWeights(w [][arbiter.NumPatterns]uint32, k int) [][arbiter.NumPatterns]uint32 {
	if w == nil {
		return nil
	}
	if len(w) < k {
		panic("machine: weight table narrower than arbiter")
	}
	return w[:k]
}

// MakePacket allocates a packet from the pool with an initialized route.
// The routing strategy first maps the (typically randomized) choices onto
// its admissible set. When permanent link faults are active, a fault-aware
// strategy (route.FaultRouter) then routes around them natively; any other
// strategy falls back to emergency rerouting (graceful degradation). An
// unreachable destination marks the run fatally unroutable either way.
func (m *Machine) MakePacket(src, dst topo.NodeEp, c route.Choices, class route.Class, pattern uint8, size uint8) *packet.Packet {
	c = m.Cfg.Scheme.Choose(m.routeCfg, src, dst, c, class)
	if m.flt != nil && len(m.flt.failed) > 0 {
		avoided, rerouted, ok := m.avoidFailed(src, dst, c, class)
		if !ok {
			// Injection can run on any shard worker (endpoint Sources), so
			// the injection counter slot and the fatal marker are mutexed.
			m.flt.mu.Lock()
			m.flt.cnt[m.flt.injSlot()].Unroutable++
			if m.flt.fatal == nil {
				m.flt.fatal = fmt.Errorf("machine: no admissible route from %v to %v avoids the failed links", src, dst)
			}
			m.flt.mu.Unlock()
		} else {
			if rerouted {
				m.flt.mu.Lock()
				if m.faultAware {
					m.flt.cnt[m.flt.injSlot()].RoutedNative++
				} else {
					m.flt.cnt[m.flt.injSlot()].Rerouted++
				}
				m.flt.mu.Unlock()
			}
			c = avoided
		}
	}
	p := m.alloc(m.nodeShard[src.Node])
	p.Src, p.Dst = src, dst
	p.Size = size
	p.PatternID = pattern
	p.Route = route.Init(m.routeCfg, src, dst, c.Order, c.Slice, c.Ties, class)
	return p
}

// avoidFailed steers admissible routing choices away from the failed-link
// set: a fault-aware strategy searches its own per-pair path set
// (route.FaultRouter); every other strategy falls back to the generic
// emergency rerouting of graceful degradation.
func (m *Machine) avoidFailed(src, dst topo.NodeEp, c route.Choices, class route.Class) (out route.Choices, rerouted, ok bool) {
	if fr, isFR := m.Cfg.Scheme.(route.FaultRouter); isFR {
		out, ok = fr.ChooseAvoiding(m.routeCfg, src, dst, c, class, m.flt.failed)
		return out, ok && out != c, ok
	}
	return route.ChoicesAvoiding(m.routeCfg, src, dst, c, class, m.flt.failed)
}

// MakeRandomPacket is MakePacket with uniformly randomized routing choices.
func (m *Machine) MakeRandomPacket(src, dst topo.NodeEp, class route.Class, pattern uint8, rng *rand.Rand) *packet.Packet {
	return m.MakePacket(src, dst, route.RandomChoices(rng), class, pattern, 1)
}

// alloc takes a packet from the free list of the given shard — the shard of
// the component allocating, so no two workers ever share a list. Shard
// workers allocate concurrently; packet IDs become schedule-dependent then,
// but that changes no result: the invariant suite keys nothing by ID (it only
// prints one in a violation), telemetry — the one ID consumer — is refused
// under sharding, and pooled packets are fully Reset on reuse.
func (m *Machine) alloc(shard int32) *packet.Packet {
	id := m.nextID.Add(1)
	pool := &m.shards[shard].pool
	if n := len(*pool); n > 0 {
		p := (*pool)[n-1]
		*pool = (*pool)[:n-1]
		p.Reset()
		p.ID = id
		return p
	}
	return &packet.Packet{ID: id, MGroup: -1}
}

// clonePacket copies a multicast packet for one branch of its tree, on
// behalf of a component of the given shard.
func (m *Machine) clonePacket(p *packet.Packet, shard int32) *packet.Packet {
	c := m.alloc(shard)
	id := c.ID
	*c = *p
	c.ID = id
	c.Payload = nil // branches share no payload modeling
	if m.checks != nil {
		m.checks.OnClone(c, m.Engine.Now())
	}
	return c
}

// InjectMulticast queues the source-node copies of a multicast group
// rooted at src: one branch per forwarded torus direction plus local
// deliveries, exactly as the endpoint adapter's table would produce. It
// returns the group's machine-wide delivery count (for run-until bounds).
func (m *Machine) InjectMulticast(src topo.NodeEp, group int, class route.Class, pattern uint8) int {
	g := m.Cfg.Multicast[group]
	if g == nil {
		panic(fmt.Sprintf("machine: multicast group %d not loaded", group))
	}
	e, ok := g.Entries[src.Node]
	if !ok {
		panic(fmt.Sprintf("machine: multicast group %d has no entry at source node %d", group, src.Node))
	}
	chip := m.Topo.Chip
	srcRouter := chip.Endpoints[src.Ep].Router
	ep := m.Endpoint(src)
	if m.checks != nil {
		m.checks.OnMulticastInject(group, g, m.Engine.Now())
	}
	for _, d := range e.Forward {
		p := m.alloc(ep.shard)
		p.Src, p.Size, p.PatternID, p.MGroup = src, 1, pattern, group
		p.Route = route.InitMulticastBranch(m.routeCfg, d, g.DimIndex(d.Dim()), g.Order, g.Slice, class, srcRouter)
		ep.Inject(p)
	}
	for _, dstEp := range e.Deliver {
		p := m.MakePacket(src, topo.NodeEp{Node: src.Node, Ep: dstEp},
			route.Choices{Order: g.Order, Slice: g.Slice, Ties: [3]int8{1, 1, 1}}, class, pattern, 1)
		p.MGroup = group
		ep.Inject(p)
	}
	return g.TotalDeliveries()
}

// deliver finalizes a packet at its destination endpoint.
func (m *Machine) deliver(e *EndpointAdapter, p *packet.Packet, now uint64) {
	m.delivered++
	m.Engine.Progress()
	if m.checks != nil {
		m.checks.OnDeliver(p, now)
	}
	if m.tel != nil {
		m.tel.OnDeliver(p, now)
	}
	retain := false
	if e.OnDeliver != nil {
		retain = e.OnDeliver(p, now)
	}
	// With the reliable-link layer active a delivered packet may still sit
	// in an upstream retransmission window (awaiting its cumulative ack);
	// recycling it would let a timeout rewind retransmit a packet whose
	// fields the pool has since rewritten. Fault runs skip pooling.
	// deliver never runs inside a shard worker, so it may hand the packet
	// back to the shard that will allocate for this source again: steady
	// traffic then recycles within each shard's own list.
	if !retain && m.flt == nil {
		pool := &m.shards[m.nodeShard[p.Src.Node]].pool
		*pool = append(*pool, p)
	}
}

// free returns a packet to the free list of the given shard, the shard of
// the component that consumed it.
func (m *Machine) free(p *packet.Packet, shard int32) {
	if m.checks != nil {
		m.checks.OnFree(p, m.Engine.Now())
	}
	if m.flt == nil {
		pool := &m.shards[shard].pool
		*pool = append(*pool, p)
	}
}

// merge is the barrier hook of a parallel cycle: flush what each shard staged
// — cross-shard channel traffic (packets, credits) and link-layer metadata
// and control messages, with the arrival cycles recorded at send time — then
// apply deferred deliveries in shard order, which is component-id order, the
// same order a serial step would have delivered them. It visits only what the
// shards listed, so a cycle in which little crossed a boundary merges in
// proportion.
func (m *Machine) merge(now uint64) {
	for si := range m.shards {
		m.shards[si].chans.Flush()
	}
	if m.flt != nil {
		for si := range m.shards {
			sh := &m.shards[si]
			for i, rl := range sh.rlinks {
				rl.flush()
				sh.rlinks[i] = nil
			}
			sh.rlinks = sh.rlinks[:0]
		}
		m.flt.resolveFatal()
	}
	for si := range m.shards {
		sh := &m.shards[si]
		for i, d := range sh.deliv {
			m.deliver(d.e, d.p, now)
			sh.deliv[i] = delivEnt{}
		}
		sh.deliv = sh.deliv[:0]
	}
}

// Injected and Delivered report machine-wide packet counts.
func (m *Machine) Injected() uint64  { return m.injected }
func (m *Machine) Delivered() uint64 { return m.delivered }

// Checks returns the attached invariant suite, or nil when Cfg.Check is
// false.
func (m *Machine) Checks() *check.Suite { return m.checks }

// Telemetry returns the attached collector, or nil when Cfg.Telemetry is
// unset.
func (m *Machine) Telemetry() *telemetry.Collector { return m.tel }

// scanVCOccupancy feeds the telemetry occupancy sampler: for every node it
// visits each (chip router, VC) pair with the queued flit count summed over
// the router's input ports.
func (m *Machine) scanVCOccupancy(visit func(router int, vc uint8, flits int)) {
	for _, node := range m.nodes {
		for ri, r := range node.Routers {
			maxVC := 0
			for pi := range r.ports {
				if n := len(r.ports[pi].vcs); n > maxVC {
					maxVC = n
				}
			}
			for vci := 0; vci < maxVC; vci++ {
				flits := 0
				for pi := range r.ports {
					if vci < len(r.ports[pi].vcs) {
						flits += r.ports[pi].vcs[vci].flits()
					}
				}
				visit(ri, uint8(vci), flits)
			}
		}
	}
}

// queuedPackets is the conservation census over component queues: router VC
// queues, channel-adapter queues plus pending multicast branches, and
// endpoint injection queues. In-flight channel contents are counted by the
// checker itself.
func (m *Machine) queuedPackets() int {
	total := 0
	for _, node := range m.nodes {
		for _, r := range node.Routers {
			total += r.queued
		}
		for _, a := range node.Adapters {
			total += a.queued
			for i := range a.ing {
				total += len(a.ing[i].branches)
			}
		}
		for _, e := range node.Endpoints {
			total += e.Pending()
		}
	}
	if m.flt != nil {
		// Reliable links are census-exempt (their pipes may hold duplicate
		// transmissions of one logical packet); the retransmission windows
		// account for their live packets instead.
		total += m.flt.windowLive()
	}
	return total
}

// quiet reports whether the machine holds no packets in queues and no
// packets or credits in flight on any channel.
func (m *Machine) quiet() bool {
	if m.queuedPackets() != 0 {
		return false
	}
	for _, ch := range m.chans {
		if !ch.Quiet() {
			return false
		}
	}
	if m.flt != nil && !m.flt.quiet() {
		return false
	}
	return true
}

// Quiet reports whether the fabric is fully quiescent: no packets in queues
// and no packets or credits in flight on any channel. It is the phase-barrier
// predicate of the workload layer, which steps the engine manually until
// Quiet holds (RunUntil's idle-cycle jumping would observe quiescence at an
// engine-dependent cycle). Call it only between engine steps, never from a
// hook running inside one.
func (m *Machine) Quiet() bool { return m.quiet() }

// drainBudget bounds the post-measurement drain in FinishChecks. Worst case
// is a torus channel's full VC buffers serializing out at ~3.2 cycles/flit;
// 1<<16 cycles covers that with wide margin on every supported shape.
const drainBudget = 1 << 16

// FinishChecks finalizes the attached invariant suite after a measurement:
// it lets the network drain (bounded by drainBudget), runs the end-of-run
// checks — conservation of every injected packet, exact credit restoration,
// exactly-once multicast delivery — and returns an error if any invariant
// was violated during or after the run. It also finalizes the attached
// telemetry collector (closing its trailing window and emitting artifacts).
// It is a no-op without Cfg.Check and Cfg.Telemetry.
func (m *Machine) FinishChecks() error {
	var err error
	if m.checks != nil {
		for i := 0; i < drainBudget && !m.quiet(); i++ {
			m.Engine.Step()
		}
		m.checks.Finish(m.Engine.Now(), m.quiet())
		err = m.checks.Err()
	}
	if m.tel != nil {
		if telErr := m.tel.Finish(m.Engine.Now()); err == nil {
			err = telErr
		}
	}
	return err
}

// RunUntilDelivered advances the simulation until the machine-wide delivered
// count reaches want. It returns the cycle at completion, or an error on
// watchdog deadlock / budget exhaustion. Under fault injection a fatal
// protocol failure (retry budget exhausted, unroutable destination) stops
// the run immediately and is returned instead of spinning into the watchdog.
func (m *Machine) RunUntilDelivered(want uint64, maxCycles uint64) (uint64, error) {
	done := func() bool { return m.delivered >= want }
	if m.flt != nil {
		done = func() bool { return m.delivered >= want || m.flt.fatal != nil }
	}
	err := m.Engine.RunUntil(done, maxCycles, 50_000)
	if m.flt != nil && m.flt.fatal != nil {
		return m.Engine.Now(), m.flt.fatal
	}
	return m.Engine.Now(), err
}

// TorusUtilization returns the min, mean, and max utilization of all torus
// channels over a window of cycles, where 1.0 is full effective bandwidth.
func (m *Machine) TorusUtilization(startFlits []uint64, cycles uint64) (min, mean, max float64) {
	capacity := float64(cycles) * 1000 / topo.TorusRateMilli
	base := m.Topo.NumNodes() * m.Topo.NumIntraChans()
	min = 1e18
	count := 0
	for i := base; i < len(m.chans); i++ {
		sent := m.chans[i].Sent
		if startFlits != nil {
			sent -= startFlits[i-base]
		}
		u := float64(sent) / capacity
		mean += u
		if u < min {
			min = u
		}
		if u > max {
			max = u
		}
		count++
	}
	mean /= float64(count)
	return min, mean, max
}

// SnapshotTorusFlits captures per-torus-channel flit counters for windowed
// utilization measurements.
func (m *Machine) SnapshotTorusFlits() []uint64 {
	base := m.Topo.NumNodes() * m.Topo.NumIntraChans()
	out := make([]uint64, len(m.chans)-base)
	for i := range out {
		out[i] = m.chans[base+i].Sent
	}
	return out
}
