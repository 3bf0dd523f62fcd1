package wire

import "sync"

// loopInline is the payload size a loopback frame carries without
// allocating. Every online exchange of the party runtime fits — a round of
// up to 16 share words (the engine's largest, an sDPANT release, has 6),
// packed AND openings — and only offline bulk frames (tuple batches) take
// the allocating path. Keeping the steady state allocation-free is what
// lets the loopback transport sit under the engine's hot step loop without
// moving its allocation benchmarks.
const loopInline = 64

type loopFrame struct {
	typ    byte
	n      int32
	big    []byte // nil when the payload fits inline
	inline [loopInline]byte
}

// LoopConn is one end of an in-process loopback pair.
type LoopConn struct {
	counters
	send chan<- loopFrame
	recv <-chan loopFrame
	done chan struct{} // shared by the pair, closed by the first Close
	once *sync.Once
	hold []byte // receive scratch for inline payloads
}

// Loopback builds a connected in-process pair. depth is the per-direction
// frame buffer (0 means 1); the lockstep drive inside mpc.Runtime never has
// more than one frame in flight per direction, while two free-running party
// goroutines just block when they outrun each other.
func Loopback(depth int) (*LoopConn, *LoopConn) {
	if depth < 1 {
		depth = 1
	}
	ab := make(chan loopFrame, depth)
	ba := make(chan loopFrame, depth)
	done := make(chan struct{})
	once := &sync.Once{}
	a := &LoopConn{send: ab, recv: ba, done: done, once: once}
	b := &LoopConn{send: ba, recv: ab, done: done, once: once}
	return a, b
}

// Send implements Conn.
func (c *LoopConn) Send(typ byte, payload []byte) error {
	f := loopFrame{typ: typ, n: int32(len(payload))}
	if len(payload) <= loopInline {
		copy(f.inline[:], payload)
	} else {
		f.big = append([]byte(nil), payload...)
	}
	select {
	case <-c.done:
		return ErrClosed
	default:
	}
	select {
	case c.send <- f:
		c.noteSend(len(payload))
		return nil
	case <-c.done:
		return ErrClosed
	}
}

// Recv implements Conn. The returned payload is valid until the next Recv.
func (c *LoopConn) Recv() (byte, []byte, error) {
	var f loopFrame
	// Drain frames already in flight even if the pair has been closed, so a
	// lockstep caller never loses the reply it was owed.
	select {
	case f = <-c.recv:
	default:
		select {
		case f = <-c.recv:
		case <-c.done:
			return 0, nil, ErrClosed
		}
	}
	c.noteRecv(int(f.n))
	if f.big != nil {
		return f.typ, f.big, nil
	}
	if cap(c.hold) < int(f.n) {
		c.hold = make([]byte, f.n)
	}
	c.hold = c.hold[:f.n]
	copy(c.hold, f.inline[:f.n])
	return f.typ, c.hold, nil
}

// Stats implements Conn.
func (c *LoopConn) Stats() Stats { return c.stats() }

// Close implements Conn: it releases both ends of the pair.
func (c *LoopConn) Close() error {
	c.once.Do(func() { close(c.done) })
	return nil
}
