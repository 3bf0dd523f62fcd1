// Package wire is the transport layer under the two-party runtime: a
// length-prefixed binary framing, a Conn interface with per-connection
// round/byte accounting, and two interchangeable implementations — an
// in-process loopback channel pair (the default every simulation and test
// runs on) and TCP+TLS between real party processes (cmd/incshrink-party).
//
// The framing is deliberately minimal: one type byte and a 32-bit
// little-endian payload length, followed by the payload. Frame lengths are
// public by design — the MPC layers above only ever move uniformly masked
// shares and openings whose sizes are fixed functions of the public circuit,
// so the framing itself carries no secret-dependent structure (the
// oblivtaint analyzer checks this package stays that way).
//
// Accounting is transport-independent: both implementations count the same
// logical frame bytes (header + payload) and the same round definition (a
// receive that completes after at least one send since the previous
// receive). That invariant is what makes a protocol run over TCP
// byte-identical — transcripts, snapshots and all — to the same run over
// loopback; the equivalence tests in internal/party pin it.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync/atomic"
)

// Frame layout constants.
const (
	// FrameOverhead is the fixed per-frame header size: one type byte plus a
	// 32-bit little-endian payload length.
	FrameOverhead = 5
	// MaxFrame is the default payload-length bound a reader enforces before
	// allocating anything: large enough for any offline tuple batch the
	// party runtime ships, small enough that a hostile length cannot OOM the
	// process.
	MaxFrame = 1 << 20
)

// Typed decode/transport errors, distinguishable with errors.Is.
var (
	// ErrFrameTooLarge reports a frame whose declared payload length exceeds
	// the reader's bound.
	ErrFrameTooLarge = errors.New("wire: frame exceeds length bound")
	// ErrTruncated reports a stream that ended mid-frame.
	ErrTruncated = errors.New("wire: truncated frame")
	// ErrClosed reports an operation on a closed connection.
	ErrClosed = errors.New("wire: connection closed")
)

// Stats is a point-in-time snapshot of a connection's accounting counters.
// Bytes are logical frame bytes (FrameOverhead + payload), identical across
// transports; Rounds counts receives that completed after at least one send
// since the previous receive — the sequential-dependency chain length of the
// protocol run so far.
type Stats struct {
	Rounds     uint64
	FramesSent uint64
	FramesRecv uint64
	BytesSent  uint64
	BytesRecv  uint64
}

// Sub returns the delta s - prev, counter by counter.
func (s Stats) Sub(prev Stats) Stats {
	return Stats{
		Rounds:     s.Rounds - prev.Rounds,
		FramesSent: s.FramesSent - prev.FramesSent,
		FramesRecv: s.FramesRecv - prev.FramesRecv,
		BytesSent:  s.BytesSent - prev.BytesSent,
		BytesRecv:  s.BytesRecv - prev.BytesRecv,
	}
}

// Conn is one party's end of the transport. Send ships one frame; Recv
// blocks for the next one (the returned payload is only valid until the next
// Recv on the same connection). A Conn is owned by exactly one party
// goroutine; Stats may be read from anywhere.
type Conn interface {
	Send(typ byte, payload []byte) error
	Recv() (typ byte, payload []byte, err error)
	Stats() Stats
	Close() error
}

// counters is the shared accounting block both implementations embed. The
// fields are typed atomics so Stats() can be sampled from outside the party
// goroutine (metrics gather, tests) without a lock.
type counters struct {
	rounds, framesSent, framesRecv atomic.Uint64
	bytesSent, bytesRecv           atomic.Uint64
	sentSinceRecv                  atomic.Bool
}

func (c *counters) noteSend(payloadLen int) {
	c.framesSent.Add(1)
	c.bytesSent.Add(FrameOverhead + uint64(payloadLen))
	c.sentSinceRecv.Store(true)
}

func (c *counters) noteRecv(payloadLen int) {
	c.framesRecv.Add(1)
	c.bytesRecv.Add(FrameOverhead + uint64(payloadLen))
	if c.sentSinceRecv.Swap(false) {
		c.rounds.Add(1)
	}
}

func (c *counters) stats() Stats {
	return Stats{
		Rounds:     c.rounds.Load(),
		FramesSent: c.framesSent.Load(),
		FramesRecv: c.framesRecv.Load(),
		BytesSent:  c.bytesSent.Load(),
		BytesRecv:  c.bytesRecv.Load(),
	}
}

// AppendFrame encodes one frame onto dst and returns the extended slice —
// the single encoding every transport and the fuzz round-trip share.
func AppendFrame(dst []byte, typ byte, payload []byte) []byte {
	var hdr [FrameOverhead]byte
	hdr[0] = typ
	binary.LittleEndian.PutUint32(hdr[1:], uint32(len(payload)))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// FrameReader decodes frames from a byte stream with a hard payload-length
// bound. The payload buffer is owned by the reader and reused: a returned
// payload is valid only until the next Read. Allocation grows with bytes
// actually read, never with a declared length alone beyond the bound.
type FrameReader struct {
	r   io.Reader
	max uint32
	buf []byte
}

// NewFrameReader wraps r with a frame decoder enforcing the given payload
// bound (0 means MaxFrame).
func NewFrameReader(r io.Reader, max uint32) *FrameReader {
	if max == 0 {
		max = MaxFrame
	}
	return &FrameReader{r: r, max: max}
}

// Read decodes the next frame. A clean EOF before the first header byte is
// io.EOF; any mid-frame end is ErrTruncated; a declared length beyond the
// bound is ErrFrameTooLarge, detected before any payload allocation.
func (fr *FrameReader) Read() (typ byte, payload []byte, err error) {
	var hdr [FrameOverhead]byte
	if _, err := io.ReadFull(fr.r, hdr[:1]); err != nil {
		if errors.Is(err, io.EOF) {
			return 0, nil, io.EOF
		}
		return 0, nil, fmt.Errorf("%w: %v", ErrTruncated, err)
	}
	if _, err := io.ReadFull(fr.r, hdr[1:]); err != nil {
		return 0, nil, fmt.Errorf("%w: header: %v", ErrTruncated, err)
	}
	n := binary.LittleEndian.Uint32(hdr[1:])
	if n > fr.max {
		return 0, nil, fmt.Errorf("%w: %d > %d", ErrFrameTooLarge, n, fr.max)
	}
	if uint32(cap(fr.buf)) < n {
		fr.buf = make([]byte, n)
	}
	fr.buf = fr.buf[:n]
	if _, err := io.ReadFull(fr.r, fr.buf); err != nil {
		return 0, nil, fmt.Errorf("%w: payload: %v", ErrTruncated, err)
	}
	return hdr[0], fr.buf, nil
}
