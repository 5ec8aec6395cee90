package fault

import "anton2/internal/wire"

// This file is the fault layer's half of the checkpoint codec: the go-back-N
// protocol machines, the injector's SplitMix64 stream positions and the event
// counters, appended to and read back from the machine snapshot. Everything
// here is plain integers, so a restored run draws the exact same fault
// schedule the uninterrupted run would have. Wiring parameters (window,
// timeout, retry limit) are constants or derived from the link, and are
// deliberately absent.

// AppendState appends the sender's protocol position.
func (s *Sender) AppendState(b []byte) []byte {
	for _, v := range [...]uint64{s.base, s.next, s.retx, s.lastMove, uint64(s.attempts)} {
		b = wire.AppendUvarint(b, v)
	}
	return wire.AppendBool(b, s.dead)
}

// ReadState loads a position AppendState wrote.
func (s *Sender) ReadState(r *wire.Reader) {
	base, next, retx := r.Uvarint(), r.Uvarint(), r.Uvarint()
	lastMove, attempts, dead := r.Uvarint(), r.Uvarint(), r.Bool()
	if base > next || retx > next {
		r.Fail("fault: sender state out of order: base %d, retx %d, next %d", base, retx, next)
		return
	}
	s.base, s.next, s.retx = base, next, retx
	s.lastMove, s.attempts, s.dead = lastMove, int(attempts), dead
}

// AppendState appends the receiver's protocol position.
func (r *Receiver) AppendState(b []byte) []byte {
	return wire.AppendBool(wire.AppendUvarint(b, r.expected), r.nackArmed)
}

// ReadState loads a position AppendState wrote.
func (r *Receiver) ReadState(rd *wire.Reader) {
	r.expected, r.nackArmed = rd.Uvarint(), rd.Bool()
}

// AppendStreams appends the position of every injection stream: one
// SplitMix64 state per (kind, link), behind the link count. The
// permanent-failure stream is not here — FailedLinks is a pure function of
// the seed and re-derives identically on rebuild.
func (in *Injector) AppendStreams(b []byte) []byte {
	b = wire.AppendUvarint(b, uint64(len(in.corrupt)))
	for _, streams := range [...][]uint64{in.corrupt, in.stall, in.credit} {
		for _, s := range streams {
			b = wire.AppendUint64(b, s)
		}
	}
	return b
}

// ReadStreams loads stream positions into an injector built for the same
// link count.
func (in *Injector) ReadStreams(r *wire.Reader) {
	if n := r.Uvarint(); n != uint64(len(in.corrupt)) {
		r.Fail("fault: injector streams for %d links, machine has %d", n, len(in.corrupt))
		return
	}
	for _, streams := range [...][]uint64{in.corrupt, in.stall, in.credit} {
		for i := range streams {
			streams[i] = r.Uint64()
		}
	}
}

// words lists the counters in declaration order, the order of their
// checkpoint record.
func (c *Counters) words() [14]*uint64 {
	return [...]*uint64{
		&c.CorruptInjected, &c.CorruptDetected, &c.DupsDropped, &c.Retransmits, &c.Acks, &c.Nacks,
		&c.Timeouts, &c.StallsInjected, &c.CreditsDropped, &c.CreditsRestored, &c.LinksFailed,
		&c.Rerouted, &c.RoutedNative, &c.Unroutable,
	}
}

// AppendState appends the counters.
func (c *Counters) AppendState(b []byte) []byte {
	for _, w := range c.words() {
		b = wire.AppendUvarint(b, *w)
	}
	return b
}

// ReadState loads counters AppendState wrote.
func (c *Counters) ReadState(r *wire.Reader) {
	for _, w := range c.words() {
		*w = r.Uvarint()
	}
}
