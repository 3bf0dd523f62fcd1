package mpc

import (
	"encoding/binary"
	"errors"
	"fmt"

	"incshrink/internal/secretshare"
	"incshrink/internal/wire"
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

// PartyRuntime drives one party's half of the two-party protocol against a
// transport. A protocol round is one begin/finish pair: begin draws or loads
// every word this party contributes to the round and ships them as one
// frame, finish receives the peer's frame; the round's results are then
// consumed through Round, which observes the party's transcript events with
// the connection's cumulative round/byte tally attached.
//
// Runtime composes two of these over a loopback pair and drives them in
// lockstep from one goroutine (the simulation default); cmd/incshrink-party
// runs exactly one, blocking on a real TLS connection. Both paths execute
// the same begin/finish halves, which is why a networked run is
// byte-identical to a loopback run.
type PartyRuntime struct {
	party *Party
	conn  wire.Conn
	// meter accumulates this party's modeled cost in standalone mode. The
	// in-process Runtime meters at the runtime level instead (one charge per
	// joint operation, not one per party), so its PartyRuntimes carry no
	// meter.
	meter *Meter
	now   int
	seen  wire.Stats
	// words counts the words this party has shipped, for the wire gauge; it
	// is accounting, not state.
	words uint64
	round Round
	// mine and peer are the current round's words, this party's and the
	// peer's, by slot; frame is the outgoing payload.
	mine, peer []uint32
	frame      []byte
}

// NewPartyRuntime builds one party's standalone protocol driver over conn.
// The seed is the deployment seed: the party's private stream is derived
// exactly as NewRuntime derives it, so a pair of standalone runtimes with
// the same deployment seed reproduces the in-process Runtime bit for bit.
func NewPartyRuntime(id PartyID, seed int64, model CostModel, conn wire.Conn) *PartyRuntime {
	pr := &PartyRuntime{
		party: NewParty(id, seed*3+1+int64(id)),
		conn:  conn,
		meter: NewMeter(model),
	}
	pr.round = Round{ps: []*PartyRuntime{pr}, meter: pr.meter}
	return pr
}

// attachPartyRuntime wraps an existing party over a conn without a meter —
// the Runtime-internal constructor; the Runtime drives its rounds.
func attachPartyRuntime(p *Party, conn wire.Conn) *PartyRuntime {
	return &PartyRuntime{party: p, conn: conn}
}

// Party returns the underlying party (share store, digest, wire tally).
func (pr *PartyRuntime) Party() *Party { return pr.party }

// SetTime advances the logical clock used to stamp transcript events.
func (pr *PartyRuntime) SetTime(t int) { pr.now = t }

// Now returns the current logical time.
func (pr *PartyRuntime) Now() int { return pr.now }

// Round starts a new protocol round of this party alone (see Round).
func (pr *PartyRuntime) Round() *Round { return pr.round.reset() }

// noteWire folds the connection's activity since the last observation into
// the party's cumulative wire tally (the value transcript events carry).
func (pr *PartyRuntime) noteWire() {
	st := pr.conn.Stats()
	d := st.Sub(pr.seen)
	pr.seen = st
	pr.party.noteWire(d.Rounds, d.BytesSent+d.BytesRecv)
}

// holds checks that this party stores every share the round recovers.
func (pr *PartyRuntime) holds(words []roundWord) error {
	for _, w := range words {
		if !w.recovery {
			continue
		}
		if _, ok := pr.party.LoadShare(w.key); !ok {
			return fmt.Errorf("mpc: no shared value under key %q", w.key)
		}
	}
	return nil
}

// begin fills this party's words of a round in slot order — a fresh draw
// for every contribution, the stored share for every recovery — and ships
// them as one frame.
func (pr *PartyRuntime) begin(words []roundWord) error {
	pr.mine, pr.frame = pr.mine[:0], pr.frame[:0]
	for _, w := range words {
		var v uint32
		if w.recovery {
			v, _ = pr.party.LoadShare(w.key)
		} else {
			v = pr.party.rng.Uint32()
		}
		pr.mine = append(pr.mine, v)
		pr.frame = binary.LittleEndian.AppendUint32(pr.frame, v)
	}
	if err := pr.conn.Send(FrameWord, pr.frame); err != nil {
		return fmt.Errorf("mpc: %v send: %w", pr.party.ID, err)
	}
	pr.words += uint64(len(words))
	pr.noteWire()
	return nil
}

// finish receives the peer's frame of an n-word round.
func (pr *PartyRuntime) finish(n int) error {
	typ, p, err := pr.conn.Recv()
	if err != nil {
		return fmt.Errorf("mpc: %v recv: %w", pr.party.ID, err)
	}
	if typ != FrameWord || len(p) != 4*n {
		return fmt.Errorf("mpc: %v recv: %w: type %#x length %d, want %d words", pr.party.ID, ErrBadFrame, typ, len(p), n)
	}
	pr.noteWire()
	pr.peer = pr.peer[:0]
	for i := range n {
		pr.peer = append(pr.peer, binary.LittleEndian.Uint32(p[4*i:]))
	}
	return nil
}

// contributed records this party's contribution at slot i.
func (pr *PartyRuntime) contributed(i int, label string) {
	pr.party.observe(Event{Kind: EvRandomContributed, Time: pr.now, Share: pr.mine[i], Label: label})
}

// share completes the Appendix A.2 re-share at slot i from this party's
// side: S0 keeps the joint mask, S1 keeps the value under the mask.
func (pr *PartyRuntime) share(i int, key string, value secretshare.Word) {
	pr.contributed(i, "reshare:"+key)
	sh := pr.mine[i] ^ pr.peer[i]
	if pr.party.ID == Server1 {
		sh ^= value
	}
	pr.party.StoreShare(pr.now, key, sh)
}

// ObserveBatch records a padded Transform batch in this party's transcript.
func (pr *PartyRuntime) ObserveBatch(size int, label string) {
	pr.party.observe(Event{Kind: EvBatchObserved, Time: pr.now, Size: size, Label: label})
}

// ObserveFetch records a DP-sized cache-to-view fetch.
func (pr *PartyRuntime) ObserveFetch(size int, label string) {
	pr.party.observe(Event{Kind: EvFetchObserved, Time: pr.now, Size: size, Label: label})
}

// ObserveFlush records a fixed-size cache flush.
func (pr *PartyRuntime) ObserveFlush(size int, label string) {
	pr.party.observe(Event{Kind: EvFlushObserved, Time: pr.now, Size: size, Label: label})
}

// PartyRuntimeState is the serializable mutable state of one standalone
// party runtime: the party (randomness position, share store, transcript
// digest, wire tally), the meter and the logical clock. A party that crashes,
// restores this state and reconnects resumes bit-identically — the wire
// tally is part of the party state precisely so a fresh connection's
// counters don't reset the transcript attribution.
type PartyRuntimeState struct {
	Party PartyState
	Meter MeterState
	Now   int
}

// State snapshots the standalone runtime.
func (pr *PartyRuntime) State() PartyRuntimeState {
	st := PartyRuntimeState{Party: pr.party.State(), Now: pr.now}
	if pr.meter != nil {
		st.Meter = pr.meter.State()
	}
	return st
}

// SetState restores a snapshot taken with State on a runtime constructed
// with the same identity, seed and cost model.
func (pr *PartyRuntime) SetState(st PartyRuntimeState) error {
	if err := pr.party.SetState(st.Party); err != nil {
		return err
	}
	if pr.meter != nil && st.Meter.Gates != nil {
		if err := pr.meter.SetState(st.Meter); err != nil {
			return err
		}
	}
	pr.now = st.Now
	return nil
}
