// Package packet defines the network packet representation. Anton 2 packets
// are fine-grained: the common case is 16 bytes of payload plus 8 bytes of
// header (one 24-byte flit, transferred over a mesh channel in a single
// cycle), and the largest packet is twice that (two flits).
package packet

import (
	"fmt"

	"anton2/internal/route"
	"anton2/internal/topo"
	"anton2/internal/wire"
)

// Packet sizes (Section 2.1/2.2).
const (
	// CommonPayloadBytes is the typical payload (one-flit packet).
	CommonPayloadBytes = 16
	// MaxFlits is the largest packet size in flits.
	MaxFlits = 2
)

// Packet is one network packet. Packets move whole (virtual cut-through):
// Size only affects channel occupancy and credit accounting.
type Packet struct {
	// The fields up to Trace are the ones a hop touches (receive, routing,
	// VC selection, forwarding, the invariant suite's stamps); they come
	// first so that they share the first cache line of the packet's
	// 192-byte allocation.
	Dst   topo.NodeEp
	Route route.State
	Size  uint8 // flits
	// PatternID labels the packet with one of the precomputed traffic
	// patterns for inverse-weighted arbitration (Section 3.2); it is a
	// field in the Anton 2 packet header.
	PatternID uint8
	// CurVC is the physical VC on the channel currently carrying the
	// packet; the sender sets it at each hop.
	CurVC uint8
	// TorusHops counts inter-node hops taken (for latency-vs-hops plots).
	TorusHops uint8
	// SeenMVC, SeenTVC and SeenDim are the invariant suite's last observation
	// of Route.MVC, Route.TVC and Route.DimIdx (internal/check stamps them at
	// injection and at every send); nothing else reads them. A checked
	// machine's snapshot writes them in the packet's record.
	SeenMVC, SeenTVC, SeenDim uint8
	// ArrivedAt is the arrival cycle at the current hop (overwritten hop by
	// hop, used for pipeline modeling).
	ArrivedAt uint64
	// Trace, when non-nil, accumulates per-stage timestamps as the packet
	// moves (used to measure the Figure 12 latency decomposition).
	Trace []TraceEvent

	// ID is written by nothing: packets carry no serial number (String names
	// one). It stays only because the benchmark harness compiles against it.
	ID  uint64
	Src topo.NodeEp
	// MGroup is the multicast group id, or -1 for unicast packets.
	// Multicast packets are replicated at endpoint and channel adapters
	// according to the loaded tables (Section 2.3).
	MGroup int

	// Timestamps (cycles). InjectedAt is when software handed the packet
	// to the endpoint adapter; DeliveredAt when the destination endpoint
	// adapter accepted it.
	InjectedAt  uint64
	DeliveredAt uint64
	// NotBefore delays injection until the given cycle (rate-controlled
	// streams in the energy experiments).
	NotBefore uint64

	// Payload carries modeled data bits for the router-energy
	// experiments; nil disables data-dependent accounting.
	Payload []byte

	// SourceRoute, when non-nil, overrides route computation: each entry
	// is the output-port index to take at the next router visited. Used
	// by the Section 4.5 energy measurements to build circuitous routes.
	SourceRoute []uint8
	// SRIdx is the position within SourceRoute.
	SRIdx int
}

// String names the packet for diagnostics as src->dst@injected-cycle.
func (p *Packet) String() string {
	return fmt.Sprintf("%v->%v@%d", p.Src, p.Dst, p.InjectedAt)
}

// TraceEvent is one timestamped stage of a traced packet's journey.
type TraceEvent struct {
	Stage string
	Cycle uint64
}

// Tracepoint records a stage if tracing is enabled on the packet.
func (p *Packet) Tracepoint(stage string, cycle uint64) {
	if p.Trace != nil {
		p.Trace = append(p.Trace, TraceEvent{Stage: stage, Cycle: cycle})
	}
}

// StartTrace enables stage tracing.
func (p *Packet) StartTrace() {
	if p.Trace == nil {
		p.Trace = make([]TraceEvent, 0, 16)
	}
}

// TraceState codes tr in a snapshot record: whether it is non-nil (a traced
// packet, whose trace may still be empty), then its events.
func TraceState(c *wire.Codec, tr *[]TraceEvent) {
	on := *tr != nil
	if c.Bool(&on); !on {
		return
	}
	if *tr == nil {
		*tr = []TraceEvent{}
	}
	wire.List(c, tr, 0, 2)
	for i := range *tr {
		ev := &(*tr)[i]
		c.String(&ev.Stage)
		c.Uvarint(&ev.Cycle)
	}
}

// Reset clears a packet for reuse from a free list.
func (p *Packet) Reset() {
	*p = Packet{Payload: p.Payload[:0], MGroup: -1}
}

// HammingDistance returns the number of differing bits between two payloads,
// counting a missing byte in either as all-zero bits.
func HammingDistance(a, b []byte) int {
	n := len(a)
	if len(b) > n {
		n = len(b)
	}
	total := 0
	for i := 0; i < n; i++ {
		var x, y byte
		if i < len(a) {
			x = a[i]
		}
		if i < len(b) {
			y = b[i]
		}
		total += popcount(x ^ y)
	}
	return total
}

// SetBits returns the number of one bits in the payload.
func SetBits(p []byte) int {
	total := 0
	for _, b := range p {
		total += popcount(b)
	}
	return total
}

func popcount(b byte) int {
	n := 0
	for ; b != 0; b &= b - 1 {
		n++
	}
	return n
}
