package mpc

import (
	"encoding/binary"
	"fmt"

	"incshrink/internal/dp"
	"incshrink/internal/secretshare"
	"incshrink/internal/wire"
)

// FrameWord is the frame type of every online runtime exchange: one 4-byte
// little-endian share word (a randomness contribution, a reshare mask
// half, or a recovery share). Layers above the runtime (internal/gmw,
// internal/party) use their own type bytes; the runtime never interprets
// theirs.
const FrameWord byte = 0x01

// PartyRuntime drives one party's half of the two-party protocol against a
// transport. Every primitive the in-process Runtime offers exists here as a
// per-party step: the word this party contributes goes out as a frame, the
// peer's word comes back, and the party's transcript event is observed with
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
	buf   [4]byte
}

// NewPartyRuntime builds one party's standalone protocol driver over conn.
// The seed is the deployment seed: the party's private stream is derived
// exactly as NewRuntime derives it, so a pair of standalone runtimes with
// the same deployment seed reproduces the in-process Runtime bit for bit.
func NewPartyRuntime(id PartyID, seed int64, model CostModel, conn wire.Conn) *PartyRuntime {
	return &PartyRuntime{
		party: NewParty(id, seed*3+1+int64(id)),
		conn:  conn,
		meter: NewMeter(model),
	}
}

// attachPartyRuntime wraps an existing party over a conn without a meter —
// the Runtime-internal constructor.
func attachPartyRuntime(p *Party, conn wire.Conn) *PartyRuntime {
	return &PartyRuntime{party: p, conn: conn}
}

// Party returns the underlying party (share store, digest, wire tally).
func (pr *PartyRuntime) Party() *Party { return pr.party }

// SetTime advances the logical clock used to stamp transcript events.
func (pr *PartyRuntime) SetTime(t int) { pr.now = t }

// Now returns the current logical time.
func (pr *PartyRuntime) Now() int { return pr.now }

// noteWire folds the connection's activity since the last observation into
// the party's cumulative wire tally (the value transcript events carry).
func (pr *PartyRuntime) noteWire() {
	st := pr.conn.Stats()
	d := st.Sub(pr.seen)
	pr.seen = st
	pr.party.noteWire(d.Rounds, d.BytesSent+d.BytesRecv)
}

func (pr *PartyRuntime) sendWord(w uint32) error {
	binary.LittleEndian.PutUint32(pr.buf[:], w)
	if err := pr.conn.Send(FrameWord, pr.buf[:]); err != nil {
		return fmt.Errorf("mpc: %v send: %w", pr.party.ID, err)
	}
	pr.noteWire()
	return nil
}

func (pr *PartyRuntime) recvWord() (uint32, error) {
	typ, p, err := pr.conn.Recv()
	if err != nil {
		return 0, fmt.Errorf("mpc: %v recv: %w", pr.party.ID, err)
	}
	if typ != FrameWord || len(p) != 4 {
		return 0, fmt.Errorf("mpc: %v recv: unexpected frame type %#x length %d", pr.party.ID, typ, len(p))
	}
	pr.noteWire()
	return binary.LittleEndian.Uint32(p), nil
}

// contributeBegin draws this party's fresh random word and ships it; the
// matching finish half receives the peer's word and records the event. The
// split halves exist so the in-process Runtime can interleave both parties
// from one goroutine without deadlocking on an unbuffered transport.
func (pr *PartyRuntime) contributeBegin() (uint32, error) {
	z := pr.party.rng.Uint32()
	return z, pr.sendWord(z)
}

func (pr *PartyRuntime) jointFinish(z uint32, label string) (uint32, error) {
	zp, err := pr.recvWord()
	if err != nil {
		return 0, err
	}
	pr.party.observe(Event{Kind: EvRandomContributed, Time: pr.now, Share: z, Label: label})
	return z ^ zp, nil
}

func (pr *PartyRuntime) shareFinish(key string, value secretshare.Word, z uint32) error {
	zp, err := pr.recvWord()
	if err != nil {
		return err
	}
	pr.party.observe(Event{Kind: EvRandomContributed, Time: pr.now, Share: z, Label: "reshare:" + key})
	// Appendix A.2 re-sharing, evaluated from this party's side: S0 keeps
	// the joint mask, S1 keeps the value under the mask.
	mask := z ^ zp
	sh := mask
	if pr.party.ID == Server1 {
		sh = value ^ mask
	}
	pr.party.StoreShare(pr.now, key, sh)
	return nil
}

func (pr *PartyRuntime) recoverBegin(key string) (uint32, error) {
	s, ok := pr.party.LoadShare(key)
	if !ok {
		return 0, fmt.Errorf("mpc: no shared value under key %q", key)
	}
	return s, pr.sendWord(s)
}

func (pr *PartyRuntime) recoverFinish(s uint32) (uint32, error) {
	sp, err := pr.recvWord()
	if err != nil {
		return 0, err
	}
	return s ^ sp, nil
}

// JointRandomWord runs this party's half of the Alg. 2:4-5 joint randomness
// primitive: contribute one word, receive the peer's, XOR.
func (pr *PartyRuntime) JointRandomWord(label string) (uint32, error) {
	z, err := pr.contributeBegin()
	if err != nil {
		return 0, err
	}
	return pr.jointFinish(z, label)
}

// ShareToServers runs this party's half of in-protocol re-sharing under key.
func (pr *PartyRuntime) ShareToServers(key string, value secretshare.Word) error {
	z, err := pr.contributeBegin()
	if err != nil {
		return err
	}
	return pr.shareFinish(key, value, z)
}

// RecoverInside reconstructs the value under key: this party sends its
// share, receives the peer's, and XOR-recovers. The plaintext is returned to
// the protocol layer only; no transcript event is recorded.
func (pr *PartyRuntime) RecoverInside(key string) (secretshare.Word, error) {
	s, err := pr.recoverBegin(key)
	if err != nil {
		return 0, err
	}
	return pr.recoverFinish(s)
}

// JointLaplace draws Lap(scale) from two joint random words and charges the
// standalone meter.
func (pr *PartyRuntime) JointLaplace(scale float64, op Op) (float64, error) {
	zr, err := pr.JointRandomWord("noise:mag")
	if err != nil {
		return 0, err
	}
	zs, err := pr.JointRandomWord("noise:sign")
	if err != nil {
		return 0, err
	}
	if pr.meter != nil {
		pr.meter.ChargeLaplace(op)
	}
	return dp.LaplaceFromWords(scale, zr, zs), nil
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
