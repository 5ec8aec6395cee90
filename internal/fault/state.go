package fault

import "anton2/internal/wire"

// This file is the fault layer's part of the machine snapshot: the go-back-N
// protocol machines, the injector's SplitMix64 stream positions and the event
// counters. Everything here is plain integers, so a restored run draws the
// exact same fault schedule the uninterrupted run would have. Wiring
// parameters (window, timeout, retry limit) are constants or derived from the
// link, and are deliberately absent.

// State codes the sender's protocol position.
func (s *Sender) State(c *wire.Codec) {
	for _, v := range [...]*uint64{&s.base, &s.next, &s.retx, &s.lastMove} {
		c.Uvarint(v)
	}
	c.Int(&s.attempts)
	c.Bool(&s.dead)
	if s.base > s.next || s.retx > s.next {
		c.Fail("fault: sender state out of order: base %d, retx %d, next %d", s.base, s.retx, s.next)
	}
}

// State codes the receiver's protocol position.
func (r *Receiver) State(c *wire.Codec) {
	c.Uvarint(&r.expected)
	c.Bool(&r.nackArmed)
}

// State codes the position of every injection stream: one SplitMix64 state
// per (kind, link), behind the link count, which decoding requires to be the
// injector's. The permanent-failure stream is not here — FailedLinks is a
// pure function of the seed and re-derives identically on rebuild.
func (in *Injector) State(c *wire.Codec) {
	n := len(in.corrupt)
	if c.Int(&n); n != len(in.corrupt) {
		c.Fail("fault: injector streams for %d links, machine has %d", n, len(in.corrupt))
		return
	}
	for _, streams := range [...][]uint64{in.corrupt, in.stall, in.credit} {
		for i := range streams {
			c.Uint64(&streams[i])
		}
	}
}

// words lists the counters in declaration order, the order of their
// snapshot record.
func (c *Counters) words() [14]*uint64 {
	return [...]*uint64{
		&c.CorruptInjected, &c.CorruptDetected, &c.DupsDropped, &c.Retransmits, &c.Acks, &c.Nacks,
		&c.Timeouts, &c.StallsInjected, &c.CreditsDropped, &c.CreditsRestored, &c.LinksFailed,
		&c.Rerouted, &c.RoutedNative, &c.Unroutable,
	}
}

// State codes the counters.
func (cn *Counters) State(c *wire.Codec) {
	for _, w := range cn.words() {
		c.Uvarint(w)
	}
}
