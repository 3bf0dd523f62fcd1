package mpc

import (
	"incshrink/internal/dp"
	"incshrink/internal/secretshare"
)

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
// A Round belongs to the runtime that started it and is valid until that
// runtime starts the next one.
type Round struct {
	words []roundWord
	ps    []*PartyRuntime
	meter *Meter
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
	for _, p := range rd.ps {
		if err := p.holds(rd.words); err != nil {
			return err
		}
	}
	for _, p := range rd.ps {
		if err := p.begin(rd.words); err != nil {
			return err
		}
	}
	for _, p := range rd.ps {
		if err := p.finish(len(rd.words)); err != nil {
			return err
		}
	}
	return nil
}

// open XORs the two words at slot i. In-process, both parties derive it and
// must agree.
func (rd *Round) open(i int) uint32 {
	v := rd.ps[0].mine[i] ^ rd.ps[0].peer[i]
	for _, p := range rd.ps[1:] {
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
	for _, p := range rd.ps {
		p.contributed(i, rd.words[i].key)
	}
	return rd.open(i)
}

// Laplace consumes the Noise declared at slot i as Lap(scale) and charges
// the Laplace circuit to op.
func (rd *Round) Laplace(i int, scale float64, op Op) float64 {
	zr := rd.jointWord(i)
	zs := rd.jointWord(i + 1)
	rd.meter.ChargeLaplace(op)
	return dp.LaplaceFromWords(scale, zr, zs)
}

// Share completes the re-share declared at slot i: every party records its
// contribution and stores its share of value.
func (rd *Round) Share(i int, value secretshare.Word) {
	for _, p := range rd.ps {
		p.share(i, rd.words[i].key, value)
	}
}
