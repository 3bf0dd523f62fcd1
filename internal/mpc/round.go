package mpc

import (
	"encoding/binary"
	"errors"
	"fmt"

	"incshrink/internal/dp"
	"incshrink/internal/secretshare"
)

// FrameWord is the frame type of every online runtime exchange: the round's
// 4-byte little-endian words (randomness contributions, re-share mask
// halves, recovery shares) back to back, in declaration order. Layers above
// the runtime (internal/gmw, internal/party) use their own type bytes; the
// runtime never interprets theirs.
const FrameWord byte = 0x01

// ErrBadFrame reports a peer frame of the wrong type, or with a word count
// other than the round's.
var ErrBadFrame = errors.New("mpc: unexpected frame")

// roundWord is one word of a round as both parties declare it: a share of
// the value stored under key, recovered inside the protocol, or a fresh
// random contribution — to a joint word whose event label is key, or to the
// mask of a re-share under key.
type roundWord struct {
	recovery bool
	key      string
}

// Round is one protocol round: every word the parties can exchange before
// either needs the other's reply travels in it, one FrameWord frame each
// way. A caller declares the round's words (Recover, Noise, Reshare), ships
// them with Exchange, and then consumes the results (Recovered, Laplace,
// Share) in the order the protocol observes them. Each declaration returns
// its slot, numbered from 0 in declaration order; Noise takes two slots.
//
// Draws happen at Exchange, in slot order; events, share stores and meter
// charges happen at consumption. So a protocol that declares its words in
// the order it used to draw them and consumes them in the order it used to
// observe them draws every word and records every event exactly as a
// one-word-per-round schedule would — only the wire stamps move, since every
// event after the round carries the round's whole tally. A value re-shared
// may be computed from the round's own results: it enters only locally, at
// S1, as value ^ mask.
//
// Each party of the runtime plays its half of the round (Party.begin and
// Party.finish); the in-process runtime plays both halves in lockstep, a
// one-party runtime plays one against its peer.
//
// A Round belongs to the runtime that started it and is valid until that
// runtime starts the next one.
type Round struct {
	words []roundWord
	rt    *Runtime
}

func (rd *Round) reset() *Round {
	rd.words = rd.words[:0]
	return rd
}

func (rd *Round) declare(recovery bool, key string) int {
	rd.words = append(rd.words, roundWord{recovery: recovery, key: key})
	return len(rd.words) - 1
}

// Recover declares the recovery of the value shared under key.
func (rd *Round) Recover(key string) int { return rd.declare(true, key) }

// Noise declares a joint Laplace draw: one joint word for the magnitude,
// one for the sign (the paper's JointNoise). It takes two slots.
func (rd *Round) Noise() int {
	i := rd.joint("noise:mag")
	rd.joint("noise:sign")
	return i
}

// Reshare declares an Appendix A.2 re-share under key, whose value Share
// supplies after the exchange.
func (rd *Round) Reshare(key string) int { return rd.declare(false, key) }

// joint declares one joint random word (Alg. 2:4-5).
func (rd *Round) joint(label string) int { return rd.declare(false, label) }

// Exchange runs the round: every party checks that it stores each share the
// round recovers — so a missing key fails before anything is drawn or sent —
// then ships its words in one frame, then receives its peer's.
func (rd *Round) Exchange() error {
	ps := rd.rt.ps
	for _, p := range ps {
		if err := p.holds(rd.words); err != nil {
			return err
		}
	}
	for _, p := range ps {
		if err := p.begin(rd.words); err != nil {
			return err
		}
	}
	for _, p := range ps {
		if err := p.finish(len(rd.words)); err != nil {
			return err
		}
	}
	return nil
}

// open XORs the two words at slot i. In-process, both parties derive it and
// must agree.
func (rd *Round) open(i int) uint32 {
	ps := rd.rt.ps
	v := ps[0].mine[i] ^ ps[0].peer[i]
	for _, p := range ps[1:] {
		if p.mine[i]^p.peer[i] != v {
			panic("mpc: parties opened different words")
		}
	}
	return v
}

// Recovered returns the value recovered at slot i. It exists only inside
// the protocol: no party observes it.
func (rd *Round) Recovered(i int) secretshare.Word { return rd.open(i) }

// jointWord records every party's contribution at slot i and returns the
// joint word.
func (rd *Round) jointWord(i int) uint32 {
	for _, p := range rd.rt.ps {
		p.contributed(i, rd.words[i].key, rd.rt.now)
	}
	return rd.open(i)
}

// Laplace consumes the Noise declared at slot i as Lap(scale) and charges
// the Laplace circuit to op.
func (rd *Round) Laplace(i int, scale float64, op Op) float64 {
	zr := rd.jointWord(i)
	zs := rd.jointWord(i + 1)
	rd.rt.Meter.ChargeLaplace(op)
	return dp.LaplaceFromWords(scale, zr, zs)
}

// Share completes the re-share declared at slot i: every party records its
// contribution and stores its share of value.
func (rd *Round) Share(i int, value secretshare.Word) {
	for _, p := range rd.rt.ps {
		p.share(i, rd.words[i].key, value, rd.rt.now)
	}
}

// noteWire folds the connection's activity since the last observation into
// the party's cumulative wire tally (the value transcript events carry).
func (p *Party) noteWire() {
	st := p.conn.Stats()
	d := st.Sub(p.seen)
	p.seen = st
	p.wireRounds += d.Rounds
	p.wireBytes += d.BytesSent + d.BytesRecv
}

// holds checks that this party stores every share the round recovers.
func (p *Party) holds(words []roundWord) error {
	for _, w := range words {
		if !w.recovery {
			continue
		}
		if _, ok := p.LoadShare(w.key); !ok {
			return fmt.Errorf("mpc: no shared value under key %q", w.key)
		}
	}
	return nil
}

// begin fills this party's words of a round in slot order — a fresh draw
// for every contribution, the stored share for every recovery — and ships
// them as one frame.
func (p *Party) begin(words []roundWord) error {
	p.mine, p.frame = p.mine[:0], p.frame[:0]
	for _, w := range words {
		var v uint32
		if w.recovery {
			v, _ = p.LoadShare(w.key)
		} else {
			v = p.rng.Uint32()
		}
		p.mine = append(p.mine, v)
		p.frame = binary.LittleEndian.AppendUint32(p.frame, v)
	}
	if err := p.conn.Send(FrameWord, p.frame); err != nil {
		return fmt.Errorf("mpc: %v send: %w", p.ID, err)
	}
	p.words += uint64(len(words))
	p.noteWire()
	return nil
}

// finish receives the peer's frame of an n-word round.
func (p *Party) finish(n int) error {
	typ, b, err := p.conn.Recv()
	if err != nil {
		return fmt.Errorf("mpc: %v recv: %w", p.ID, err)
	}
	if typ != FrameWord || len(b) != 4*n {
		return fmt.Errorf("mpc: %v recv: %w: type %#x length %d, want %d words", p.ID, ErrBadFrame, typ, len(b), n)
	}
	p.noteWire()
	p.peer = p.peer[:0]
	for i := range n {
		p.peer = append(p.peer, binary.LittleEndian.Uint32(b[4*i:]))
	}
	return nil
}

// contributed records this party's contribution at slot i at time t.
func (p *Party) contributed(i int, label string, t int) {
	p.observe(Event{Kind: EvRandomContributed, Time: t, Share: p.mine[i], Label: label})
}

// share completes the Appendix A.2 re-share at slot i from this party's
// side at time t: S0 keeps the joint mask, S1 keeps the value under the
// mask.
func (p *Party) share(i int, key string, value secretshare.Word, t int) {
	label, ok := p.labels[key] // built on the key's first re-share only
	if !ok {
		label = "reshare:" + key
		p.labels[key] = label
	}
	p.contributed(i, label, t)
	sh := p.mine[i] ^ p.peer[i]
	if p.ID == Server1 {
		sh ^= value
	}
	p.StoreShare(t, key, sh)
}
