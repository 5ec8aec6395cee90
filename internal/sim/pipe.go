package sim

// Pipe is a latency FIFO connecting two components. Items sent at cycle t
// become receivable at cycle t+latency. Pipes are the only sanctioned way for
// components to exchange state; because latency is at least one cycle, the
// order in which components tick within a cycle cannot affect results.
//
// Active-set contract: a Pipe does no work on idle cycles — polling it when
// nothing has arrived is a no-op — so under Engine ModeActive the sender side
// is responsible for waking the receiving component at the arrival cycle of
// whatever it enqueues (fabric.Channel does this for packets and credits).
// Skipped idle cycles therefore cannot lose or delay items: arrival times are
// absolute cycles, not tick counts.
//
// Layout: a Pipe is meant to be held by value inside its owner (MakePipe;
// fabric.Channel embeds two), and it caches its head's arrival cycle in due
// — never when empty — so the common poll, "nothing has arrived yet", reads
// one word of the owner's cache line and never touches the backing array. A
// torus pipe (latency 45) is non-empty on most cycles of a busy run and is
// polled on every one of them.
type Pipe[T any] struct {
	due     uint64 // arrival cycle of q[head]; never when the pipe is empty
	latency uint64
	head    int
	q       []pipeEntry[T]
}

type pipeEntry[T any] struct {
	at   uint64
	item T
}

// never is the due value of an empty pipe: no poll cycle reaches it.
const never = ^uint64(0)

// MakePipe returns a pipe value with the given latency in cycles (minimum
// 1), for owners that hold their pipes inline.
func MakePipe[T any](latency uint64) Pipe[T] {
	if latency == 0 {
		latency = 1
	}
	return Pipe[T]{due: never, latency: latency}
}

// NewPipe returns a heap-allocated pipe with the given latency in cycles
// (minimum 1).
func NewPipe[T any](latency uint64) *Pipe[T] {
	p := MakePipe[T](latency)
	return &p
}

// Latency returns the pipe's delivery latency in cycles.
func (p *Pipe[T]) Latency() uint64 { return p.latency }

// Send enqueues an item at cycle now; it arrives at now+latency.
func (p *Pipe[T]) Send(now uint64, v T) { p.SendAt(now+p.latency, v) }

// SendAt enqueues an item that arrives at the explicit cycle at, which must
// be at least now+1 for determinism. It is used to model serialized channels
// whose delivery time depends on occupancy.
func (p *Pipe[T]) SendAt(at uint64, v T) {
	if p.head == len(p.q) {
		p.due = at
	}
	p.q = append(p.q, pipeEntry[T]{at: at, item: v})
}

// Peek returns the oldest item if it has arrived by cycle now.
func (p *Pipe[T]) Peek(now uint64) (T, bool) {
	if p.due > now {
		var zero T
		return zero, false
	}
	return p.q[p.head].item, true
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
	if p.head == len(p.q) {
		p.head = 0
		p.q = p.q[:0]
		p.due = never
		return v, true
	}
	if p.head > 64 && p.head*2 >= len(p.q) {
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

// Entries calls f for every undelivered item in FIFO order with its absolute
// arrival cycle. Snapshot paths use it to externalize in-flight traffic;
// restore paths replay the entries through SendAt in the same order, which
// reproduces the queue exactly (arrival cycles are monotone per pipe).
func (p *Pipe[T]) Entries(f func(at uint64, item T)) {
	for _, e := range p.q[p.head:] {
		f(e.at, e.item)
	}
}

// Len returns the number of items in the pipe (arrived or in flight).
func (p *Pipe[T]) Len() int { return len(p.q) - p.head }
