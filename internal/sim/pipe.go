package sim

import "anton2/internal/wire"

// Pipe is a latency FIFO connecting two components. Items sent at cycle t
// become receivable at cycle t+latency. Pipes are the only sanctioned way for
// components to exchange state; because latency is at least one cycle, the
// order in which components tick within a cycle cannot affect results.
//
// Active-set contract: a Pipe does no work on idle cycles — polling it when
// nothing has arrived is a no-op — so under Engine ModeActive the sender side
// is responsible for waking the receiving component at the arrival cycle of
// whatever it enqueues (fabric.Channel does this for packets, credits and
// acks).
// Skipped idle cycles therefore cannot lose or delay items: arrival times are
// absolute cycles, not tick counts.
//
// Layout: a Pipe is meant to be held by value inside its owner (Init;
// fabric.Channel embeds two), and it caches its head's arrival cycle in due
// — never when empty — so the common poll, "nothing has arrived yet", reads
// one word of the owner's cache line and never touches the backing array. A
// torus pipe (latency 45) is non-empty on most cycles of a busy run and is
// polled on every one of them.
type Pipe[T any] struct {
	due     uint64 // arrival cycle of q[head]; never when the pipe is empty
	latency uint32
	head    int32
	q       []pipeEntry[T]
}

type pipeEntry[T any] struct {
	at   uint64
	item T
}

// never is the due value of an empty pipe: no poll cycle reaches it.
const never = ^uint64(0)

// Init readies a zero pipe in place, inside its owner, with the given
// latency in cycles (minimum 1). It writes no pointer, so building a slab
// of channels costs no write barriers.
func (p *Pipe[T]) Init(latency uint64) {
	p.due, p.latency = never, uint32(max(latency, 1))
}

// Latency returns the pipe's delivery latency in cycles.
func (p *Pipe[T]) Latency() uint64 { return uint64(p.latency) }

// SendAt enqueues an item that arrives at the explicit cycle at, which must
// be at least now+1 for determinism. It is used to model serialized channels
// whose delivery time depends on occupancy.
func (p *Pipe[T]) SendAt(at uint64, v T) {
	if int(p.head) == len(p.q) {
		p.due = at
	}
	p.q = append(p.q, pipeEntry[T]{at: at, item: v})
}

// Poll removes and returns the oldest item if it has arrived by cycle now.
func (p *Pipe[T]) Poll(now uint64) (T, bool) {
	var zero T
	if p.due > now {
		return zero, false
	}
	v := p.q[p.head].item
	p.q[p.head].item = zero // release for GC
	p.head++
	if h := int(p.head); h == len(p.q) {
		p.head = 0
		p.q = p.q[:0]
		p.due = never
		return v, true
	} else if h > 64 && h*2 >= len(p.q) {
		n := copy(p.q, p.q[p.head:])
		for i := n; i < len(p.q); i++ {
			p.q[i].item = zero
		}
		p.q = p.q[:n]
		p.head = 0
	}
	p.due = p.q[p.head].at
	return v, true
}

// Empty reports whether the pipe holds no items (arrived or in flight).
func (p *Pipe[T]) Empty() bool { return p.due == never }

// State codes the pipe's undelivered items for a snapshot record, behind
// their count; entry codes one item and its absolute arrival cycle, and
// minBytes bounds its spelling from below. Encoding calls entry for every
// item in FIFO order. Decoding calls it once per item with zero values, for
// entry to decode into and re-send in the same order, which reproduces the
// queue exactly (arrival cycles are monotone per pipe).
func (p *Pipe[T]) State(c *wire.Codec, minBytes int, entry func(at uint64, item T)) {
	n := p.Len()
	if c.Len(&n, minBytes); !c.Decoding() {
		for _, e := range p.q[p.head:] {
			entry(e.at, e.item)
		}
		return
	}
	var zero T
	for ; n > 0 && c.Err() == nil; n-- {
		entry(0, zero)
	}
}

// At returns the arrival cycle of the i-th item in the pipe, in FIFO order.
func (p *Pipe[T]) At(i int) uint64 { return p.q[int(p.head)+i].at }

// Len returns the number of items in the pipe (arrived or in flight).
func (p *Pipe[T]) Len() int { return len(p.q) - int(p.head) }
