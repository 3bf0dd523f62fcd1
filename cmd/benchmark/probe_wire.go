package main

import (
	"bytes"
	"math"
	"time"

	"incshrink/internal/wire"
)

// wordFrame is the frame the runtime's word exchanges move: a type byte and
// a 4-byte share.
const wordFrameType byte = 0x01

var wordPayload = []byte{1, 2, 3, 4}

// pingChunk is how many rounds pingPong times together.
const pingChunk = 500

// pingPong measures one round on a connection pair: party 0 sends a word
// frame and waits for party 1's, which answers each frame it receives. The
// result is the per-round time of the best chunk of pingChunk rounds.
func pingPong(c0, c1 wire.Conn, rounds int) (perRound time.Duration, st wire.Stats, err error) {
	rounds = max(rounds/pingChunk, 1) * pingChunk
	best := time.Duration(math.MaxInt64)
	err = both(func(role int) error {
		if role == 1 {
			for i := 0; i < rounds; i++ {
				if _, _, err := c1.Recv(); err != nil {
					return err
				}
				if err := c1.Send(wordFrameType, wordPayload); err != nil {
					return err
				}
			}
			return nil
		}
		t0 := time.Now()
		for i := 0; i < rounds; i++ {
			if err := c0.Send(wordFrameType, wordPayload); err != nil {
				return err
			}
			if _, _, err := c0.Recv(); err != nil {
				return err
			}
			if (i+1)%pingChunk == 0 {
				now := time.Now()
				best = min(best, now.Sub(t0))
				t0 = now
			}
		}
		return nil
	})
	return best / pingChunk, c0.Stats(), err
}

// probeWire times a word-frame round over the loopback and over localhost
// TLS, and the frame codec alone.
func probeWire(pc *probeCtx, out values) error {
	l0, l1 := wire.Loopback(1)
	defer l0.Close()
	defer l1.Close()
	per, st, err := pingPong(l0, l1, pc.calls(100000))
	if err != nil {
		return err
	}
	out["wire.loopback_round_ns"] = float64(per.Nanoseconds())
	out["wire.bytes_per_round"] = float64(st.BytesSent+st.BytesRecv) / float64(st.Rounds)

	ep, err := newTLSEndpoints(pc.dir)
	if err != nil {
		return err
	}
	defer ep.ln.Close()
	t0, t1, err := ep.pair()
	if err != nil {
		return err
	}
	defer t0.Close()
	defer t1.Close()
	if per, _, err = pingPong(t0, t1, pc.calls(20000)); err != nil {
		return err
	}
	out["wire.tls_round_us"] = float64(per.Nanoseconds()) / 1e3

	var frame []byte
	rd := bytes.NewReader(nil)
	fr := wire.NewFrameReader(rd, 0)
	out["wire.frame_codec_ns"] = perCallNS(pc.calls(200000), func() {
		frame = wire.AppendFrame(frame[:0], wordFrameType, wordPayload)
		rd.Reset(frame)
		if _, _, e := fr.Read(); e != nil {
			err = e
		}
	})
	return err
}
