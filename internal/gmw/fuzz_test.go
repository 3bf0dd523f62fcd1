package gmw

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"incshrink/internal/wire"
)

// fuzzShape is the online schedule of FuzzPeerOpen's program: a
// CompareExchange, whose rounds are all even-width and so unpadded, then an
// Equal, whose last round (one lane, 4 bits) carries 4 bits of padding.
var fuzzShape = slices.Concat(CompareExchangeShape, EqualShape)

// rewriteConn is a fuzzed peer's end of the pair: its evaluator runs the
// protocol honestly, but every FrameOpen it sends is reframed from the fuzz
// input first, two bytes per round — an op choosing the reframing and a byte
// ORed into the padding bits of the last byte. With the input exhausted the
// frames go out untouched.
type rewriteConn struct {
	wire.Conn
	data  []byte
	round int
	// bad is the first round whose frame left with the wrong type or
	// length, -1 while every frame has been well-formed.
	bad int
}

func (c *rewriteConn) Send(typ byte, p []byte) error {
	if typ != FrameOpen || len(c.data) < 2 {
		return c.Conn.Send(typ, p)
	}
	op, junk := c.data[0]%8, c.data[1]
	c.data = c.data[2:]
	k := fuzzShape[c.round]
	c.round++
	out := bytes.Clone(p)
	if pad := 8*len(out) - 4*k; pad > 0 {
		out[len(out)-1] |= junk << uint(8-pad)
	}
	switch op {
	case 3: // the fan-in-3 length, ⌈3k/8⌉ (the same as ⌈4k/8⌉ for k = 1)
		out = out[:(3*k+7)/8]
	case 4: // one byte short
		out = out[:len(out)-1]
	case 5: // one byte long
		out = append(out, junk)
	case 6: // a reveal frame where an opening is due
		typ = FrameReveal
	case 7: // the two-input length, ⌈2k/8⌉ (the same as ⌈4k/8⌉ for k = 1)
		out = out[:(2*k+7)/8]
	}
	if (typ != FrameOpen || len(out) != len(p)) && c.bad < 0 {
		c.bad = c.round - 1
	}
	return c.Conn.Send(typ, out)
}

// FuzzPeerOpen: a peer answers a CompareExchange and an Equal with fuzzed
// FrameOpen payloads. Whatever it sends, the honest party ends with the
// correct (min, max, x == y) when every frame was well-formed — padding
// bits are ignored — and otherwise with the sticky ErrBadFrame from the
// first malformed round, having sent nothing after that round's opening. It
// never panics. Seed corpus: testdata/fuzz/FuzzPeerOpen.
func FuzzPeerOpen(f *testing.F) {
	f.Add(uint32(5), uint32(9), []byte{})
	f.Add(uint32(9), uint32(9), []byte{0, 0xFF, 1, 0xFF, 2, 0xFF, 0, 0xFF, 1, 0xFF, 2, 0xFF})
	f.Add(uint32(1<<16), uint32(1<<15), []byte{0, 0, 4, 0})
	f.Add(uint32(7), uint32(7), []byte{5, 0xAA})
	f.Add(uint32(0), uint32(0xFFFFFFFF), []byte{0, 0, 1, 0, 2, 0, 6, 0})
	f.Add(uint32(0xA5A5A5A5), uint32(0x5A5A5A5A), []byte{1, 1, 2, 2, 3, 0})
	f.Fuzz(func(t *testing.T, x, y uint32, data []byte) {
		c0, c1 := wire.Loopback(8)
		peer := &rewriteConn{Conn: c1, data: data, bad: -1}
		e0, e1 := NewEval(0, c0, 0), NewEval(1, peer, 0)
		program := func(e *Eval) (out []uint32) {
			wx, wy := ShareOfWord(e.Role(), x, 0x5EED5EED), ShareOfWord(e.Role(), y, 0xF00DF00D)
			lo, hi := e.CompareExchange(wx, wy)
			for _, w := range []WordShare{lo, hi, WordOfBit(e.Equal(wx, wy))} {
				if v, err := e.OpenWord(w); err == nil {
					out = append(out, v)
				}
			}
			return out
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			if e1.RecvTriples() == nil {
				program(e1)
			}
		}()
		var out []uint32
		if e0.DealTriples(NewDealer(int64(x)<<32|int64(y)), fuzzShape.ANDs()) == nil {
			out = program(e0)
		}
		sent := c0.Stats().FramesSent
		c0.Close() // releases the peer if it still waits on a frame
		<-done

		if peer.bad < 0 {
			if want := []uint32{min(x, y), max(x, y), b2u(x == y)}; e0.Err() != nil || !slices.Equal(out, want) {
				t.Fatalf("well-formed peer: opened %v, err %v; want %v", out, e0.Err(), want)
			}
			return
		}
		first := e0.Err()
		if !errors.Is(first, ErrBadFrame) {
			t.Fatalf("malformed round %d: err = %v, want ErrBadFrame", peer.bad, first)
		}
		if len(out) != 0 {
			t.Errorf("malformed round %d: opened %v", peer.bad, out)
		}
		// The tuple block, then one opening per round up to the bad one.
		if want := uint64(2 + peer.bad); sent != want {
			t.Errorf("malformed round %d: party sent %d frames, want %d", peer.bad, sent, want)
		}
		if _, err := e0.OpenWord(0); err != first || e0.Err() != first {
			t.Errorf("error not sticky: %v, then %v", first, err)
		}
	})
}
