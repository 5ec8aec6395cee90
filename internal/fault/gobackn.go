package fault

// This file implements the pure go-back-N state machines of the reliable
// link layer. They hold no references to channels or packets — the reliable
// fabric.Channel owns the retransmission window and carries frames and
// control messages in its own pipes — which keeps the protocol state
// machines directly unit-testable and fuzzable (FuzzGoBackN).
//
// Protocol sketch: every frame transmitted on a link carries a sequence
// number and a CRC. The receiver accepts only the in-order, uncorrupted
// frame it expects, returning a cumulative ACK; anything else is dropped
// (buffer space is released immediately) and answered with at most one NACK
// per gap. The sender keeps up to Window unacknowledged frames, rewinds its
// retransmit cursor on a NACK, and falls back to a timeout rewind when a
// retransmission is itself lost. A bounded number of rewinds without base
// progress declares the link dead.

// Sender is the go-back-N sender state machine for one link.
type Sender struct {
	window     int
	timeout    uint64
	retryLimit int

	base uint64 // oldest unacknowledged sequence number
	next uint64 // next fresh sequence number
	retx uint64 // next sequence to retransmit; >= next when no replay pending

	lastMove uint64 // cycle of the last base advance (or first send)
	attempts int    // rewinds since the base last advanced
	dead     bool
}

// NewSender builds a sender with the given window (frames), ack-progress
// timeout (cycles), and rewind budget.
func NewSender(window int, timeout uint64, retryLimit int) Sender {
	return Sender{window: window, timeout: timeout, retryLimit: retryLimit}
}

// Base returns the oldest unacknowledged sequence number.
func (s *Sender) Base() uint64 { return s.base }

// Next returns the next fresh sequence number.
func (s *Sender) Next() uint64 { return s.next }

// Outstanding returns the number of unacknowledged frames.
func (s *Sender) Outstanding() int { return int(s.next - s.base) }

// Attempts returns the rewinds since the base last advanced.
func (s *Sender) Attempts() int { return s.attempts }

// Dead reports whether the rewind budget has been exhausted.
func (s *Sender) Dead() bool { return s.dead }

// Quiet reports whether the sender has nothing outstanding or pending.
func (s *Sender) Quiet() bool { return s.base == s.next && s.retx >= s.next }

// CanSend reports whether a fresh frame may be transmitted: window space
// available, no replay in progress, link not dead.
func (s *Sender) CanSend() bool {
	return !s.dead && s.retx >= s.next && int(s.next-s.base) < s.window
}

// OnSend records the transmission of a fresh frame and returns its sequence
// number. The caller must have checked CanSend.
func (s *Sender) OnSend(now uint64) uint64 {
	seq := s.next
	if s.base == s.next {
		// First outstanding frame: start the progress clock.
		s.lastMove = now
	}
	s.next++
	// CanSend guaranteed retx == next on entry; keep the replay cursor
	// caught up so the fresh frame is not mistaken for a pending replay.
	s.retx = s.next
	return seq
}

// NeedRetx returns the sequence number to retransmit next, if a replay is
// pending.
func (s *Sender) NeedRetx() (uint64, bool) {
	if s.retx < s.next {
		return s.retx, true
	}
	return 0, false
}

// OnRetx records the retransmission of the pending sequence and advances the
// replay cursor.
func (s *Sender) OnRetx() uint64 {
	seq := s.retx
	s.retx++
	return seq
}

// advance moves the window base to seq (a cumulative ack boundary) and
// returns how many frames were released.
func (s *Sender) advance(seq, now uint64) int {
	if seq <= s.base {
		return 0
	}
	if seq > s.next {
		seq = s.next
	}
	n := int(seq - s.base)
	s.base = seq
	s.attempts = 0
	s.lastMove = now
	if s.retx < s.base {
		s.retx = s.base
	}
	return n
}

// OnAck processes a cumulative acknowledgment: all sequences below seq were
// accepted. Returns the number of window entries released.
func (s *Sender) OnAck(seq, now uint64) int {
	return s.advance(seq, now)
}

// OnNack processes a negative acknowledgment carrying the receiver's next
// expected sequence. It acts as a cumulative ack up to seq, then rewinds the
// replay cursor — unless a replay is already in progress, which will cover
// the gap. Returns the number of window entries released.
func (s *Sender) OnNack(seq, now uint64) int {
	n := s.advance(seq, now)
	if s.base < s.next && s.retx >= s.next {
		s.rewind(now)
	}
	return n
}

// Tick fires the timeout rewind when the base has made no progress for the
// timeout interval and no replay is in progress. Returns true if a rewind
// happened.
func (s *Sender) Tick(now uint64) bool {
	if s.dead || s.base == s.next || s.retx < s.next {
		return false
	}
	if now-s.lastMove < s.timeout {
		return false
	}
	s.rewind(now)
	return true
}

// Deadline returns the cycle at which Tick would next fire a timeout rewind,
// given no further acks or sends: lastMove + timeout. It reports false when
// no timeout is pending (nothing outstanding, a replay in progress, or the
// sender is dead). An active-set scheduler uses it to let an otherwise-idle
// sender sleep without missing its retransmit timer.
func (s *Sender) Deadline() (uint64, bool) {
	if s.dead || s.base == s.next || s.retx < s.next {
		return 0, false
	}
	return s.lastMove + s.timeout, true
}

func (s *Sender) rewind(now uint64) {
	s.retx = s.base
	s.attempts++
	s.lastMove = now
	if s.attempts > s.retryLimit {
		s.dead = true
	}
}

// Receiver is the go-back-N receiver state machine for one link.
type Receiver struct {
	expected  uint64
	nackArmed bool
}

// Expected returns the next in-order sequence number the receiver will
// accept.
func (r *Receiver) Expected() uint64 { return r.expected }

// Verdict is the receiver's decision for one arriving frame.
type Verdict struct {
	Accept bool   // deliver the frame upward
	Ack    bool   // send a cumulative ack carrying Seq
	Nack   bool   // send a nack carrying Seq (the next expected sequence)
	Seq    uint64 // ack/nack payload: the receiver's next expected sequence
}

// OnFrame processes one arriving frame. A corrupted frame's header is
// untrustworthy, so corruption is checked before the sequence number. At
// most one NACK is sent per gap: the nack stays armed until the next
// in-order accept, and the sender's timeout covers a lost or corrupted
// retransmission.
func (r *Receiver) OnFrame(seq uint64, corrupt bool) Verdict {
	if corrupt {
		return r.gap()
	}
	switch {
	case seq == r.expected:
		r.expected++
		r.nackArmed = false
		return Verdict{Accept: true, Ack: true, Seq: r.expected}
	case seq < r.expected:
		// Stale duplicate from a rewound sender: drop, but re-ack so a
		// sender that missed the original ack can advance.
		return Verdict{Ack: true, Seq: r.expected}
	default:
		return r.gap()
	}
}

func (r *Receiver) gap() Verdict {
	if r.nackArmed {
		return Verdict{}
	}
	r.nackArmed = true
	return Verdict{Nack: true, Seq: r.expected}
}
