package mpc

import (
	"crypto/sha256"
	"encoding"
	"encoding/binary"
	"fmt"
	"hash"
	"maps"
	"slices"

	"incshrink/internal/dp"
	"incshrink/internal/secretshare"
	"incshrink/internal/snapshot"
	"incshrink/internal/wire"
)

// PartyID identifies one of the two non-colluding outsourcing servers.
type PartyID int

// The two servers of the server-aided model.
const (
	Server0 PartyID = iota
	Server1
)

// String implements fmt.Stringer.
func (p PartyID) String() string { return fmt.Sprintf("S%d", int(p)) }

// EventKind classifies transcript entries, mirroring the message types the
// simulator of Table 1 must reproduce.
type EventKind int

// Transcript event kinds.
const (
	// EvShareReceived: the party stored one share of a secret-shared value
	// (uploaded data, counters, thresholds). Uniformly distributed.
	EvShareReceived EventKind = iota
	// EvBatchObserved: the party observed an exhaustively padded batch of a
	// publicly known size entering the cache (Transform output).
	EvBatchObserved
	// EvFetchObserved: the party observed a DP-sized fetch from cache to
	// view (Shrink output). The size is the only data-dependent field.
	EvFetchObserved
	// EvFlushObserved: the party observed a fixed-size cache flush.
	EvFlushObserved
	// EvRandomContributed: the party contributed a random word to a joint
	// computation (noise generation or re-sharing).
	EvRandomContributed
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EvShareReceived:
		return "share"
	case EvBatchObserved:
		return "batch"
	case EvFetchObserved:
		return "fetch"
	case EvFlushObserved:
		return "flush"
	case EvRandomContributed:
		return "random"
	default:
		return "unknown"
	}
}

// Event is a single observation in a server's view of the protocol
// execution. Size carries batch/fetch cardinalities (the DP-protected
// leakage); Share carries share values (uniform by construction); Time is
// the logical time step. WireRounds and WireBytes are the party's cumulative
// transport tally at the moment the event was recorded — they attribute the
// observation to a position in the wire conversation, so the Theorem-7/8
// comparison also requires the round and byte shape to be independent of
// the data.
type Event struct {
	Kind       EventKind
	Time       int
	Size       int
	Share      secretshare.Word
	Label      string
	WireRounds uint64
	WireBytes  uint64
}

// Transcript is one server's ordered events, simulated or recorded.
type Transcript struct {
	Party  PartyID
	Events []Event
}

// Append records an event.
func (tr *Transcript) Append(ev Event) { tr.Events = append(tr.Events, ev) }

// SizesOf extracts the Size field of all events of one kind, the projection
// the leakage tests compare against the DP mechanism's outputs.
func (tr *Transcript) SizesOf(kind EventKind) []int {
	var out []int
	for _, ev := range tr.Events {
		if ev.Kind == kind {
			out = append(out, ev.Size)
		}
	}
	return out
}

// appendEvent appends the bytes the transcript digest hashes for one event.
func appendEvent(dst []byte, ev Event) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(ev.Kind))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(ev.Time))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(ev.Size))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(ev.Share))
	dst = append(dst, ev.Label...)
	dst = binary.LittleEndian.AppendUint64(dst, ev.WireRounds)
	return binary.LittleEndian.AppendUint64(dst, ev.WireBytes)
}

// DigestWithoutWire is the SHA-256 of the recorded events in the running
// digest's encoding, with every WireRounds / WireBytes stamp zeroed: the
// projection of a transcript that regrouping the protocol's words into
// frames leaves unchanged — same draws, same events, same order.
func (tr *Transcript) DigestWithoutWire() [sha256.Size]byte {
	var b []byte
	for _, ev := range tr.Events {
		ev.WireRounds, ev.WireBytes = 0, 0
		b = appendEvent(b, ev)
	}
	return sha256.Sum256(b)
}

// StructurallyEqual compares two transcripts on everything but the share
// values, which are uniform in a real run and in its simulation alike: event
// kinds, logical times, public sizes, labels and cumulative wire tallies must
// agree, so a round whose words or frames follow the data differs too. It
// returns the index of the first difference (the shorter length when one
// transcript extends the other), or -1.
func StructurallyEqual(a, b *Transcript) (bool, int) {
	n := min(len(a.Events), len(b.Events))
	for i, x := range a.Events[:n] {
		y := b.Events[i]
		x.Share, y.Share = 0, 0
		if x != y {
			return false, i
		}
	}
	if len(a.Events) != len(b.Events) {
		return false, n
	}
	return true, -1
}

// digestStateLen is the length of a marshaled SHA-256 state.
const digestStateLen = 4 + sha256.Size + sha256.BlockSize + 8

// Party models one outsourcing server: its local share store, its private
// randomness, the running SHA-256 and count of the events it has observed,
// its cumulative wire tally (rounds and frame bytes its connection has
// moved, stamped onto every event), and its half of every protocol round —
// the connection it ships its words over and the current round's words. The
// events themselves are not kept — a party's state does not grow with the
// horizon; a test that needs them attaches a recorder (Record).
type Party struct {
	ID         PartyID
	rng        *dp.Stream
	store      map[string]secretshare.Word
	digest     hash.Hash
	events     uint64
	rec        *Transcript // nil on every serving path
	evbuf      []byte      // observe's scratch
	wireRounds uint64
	wireBytes  uint64

	conn wire.Conn
	seen wire.Stats
	// words counts the words this party has shipped, for the wire gauge; it
	// is accounting, not state.
	words uint64
	// mine and peer are the current round's words, this party's and the
	// peer's, by slot; frame is the outgoing payload.
	mine, peer []uint32
	frame      []byte
	// labels holds the event label of each key re-shared so far (share); it
	// is derived, not state.
	labels map[string]string
}

// NewParty creates a server with its own private randomness stream, the
// dp.Stream of seed, which checkpoints and resumes its own position.
func NewParty(id PartyID, seed int64) *Party {
	return &Party{
		ID:     id,
		rng:    dp.NewStream(seed),
		store:  make(map[string]secretshare.Word),
		digest: sha256.New(),
		labels: make(map[string]string),
	}
}

// Record attaches a recorder: every event observed from now on is also
// appended to tr. It is not state; only the Theorem-7/8 tests attach one.
func (p *Party) Record(tr *Transcript) {
	tr.Party = p.ID
	p.rec = tr
}

// TranscriptDigest returns the SHA-256 of every event observed so far.
func (p *Party) TranscriptDigest() [sha256.Size]byte {
	return [sha256.Size]byte(p.digest.Sum(nil))
}

// EventCount returns the number of events observed so far.
func (p *Party) EventCount() uint64 { return p.events }

// encodeState writes the party's section: its stream's draw position
// (written by the stream), its share store in key order, the running SHA-256
// of its transcript (the hash's marshaled state) with the event count, and
// its wire tally. The party's identity and seed are construction parameters,
// not state.
func (p *Party) encodeState(e *snapshot.Encoder) {
	p.rng.EncodeState(e)
	e.U32(uint32(len(p.store)))
	for _, k := range slices.Sorted(maps.Keys(p.store)) {
		e.String(k)
		e.U32(p.store[k])
	}
	// Likewise a transcript-hash state a restore would refuse.
	digest, _ := p.digest.(encoding.BinaryMarshaler).MarshalBinary()
	if len(digest) != digestStateLen {
		e.Fail("party transcript digest state is %d bytes, want %d", len(digest), digestStateLen)
	}
	e.String(string(digest))
	e.U64(p.events)
	e.U64(p.wireRounds)
	e.U64(p.wireBytes)
}

// decodeState reads a section written by encodeState into p. The share
// store, transcript digest and event count are replaced, and the private
// randomness stream is resumed at the recorded draw position (dp.Stream's
// Resume), so the next word drawn is exactly the one the snapshotted party
// would have drawn. Every field is read and checked before any is loaded: on
// error p is left untouched.
func (p *Party) decodeState(d *snapshot.Decoder) {
	rng := p.rng.Resume(d)
	n := d.Len()
	if d.Err() != nil {
		return
	}
	store := make(map[string]secretshare.Word)
	for range n {
		k, v := d.String(), d.U32()
		if d.Err() != nil {
			return
		}
		store[k] = v
	}
	if len(store) != n {
		d.Corrupt("share store with duplicate keys")
		return
	}
	state := []byte(d.String())
	if d.Err() == nil && len(state) != digestStateLen {
		d.Corrupt("party transcript digest state of %d bytes, want %d", len(state), digestStateLen)
	}
	events, rounds, bytes := d.U64(), d.U64(), d.U64()
	if d.Err() != nil {
		return
	}
	digest := sha256.New()
	if err := digest.(encoding.BinaryUnmarshaler).UnmarshalBinary(state); err != nil {
		d.Corrupt("restoring %v transcript digest: %v", p.ID, err)
		return
	}
	p.rng, p.store, p.digest = rng, store, digest
	p.events, p.wireRounds, p.wireBytes = events, rounds, bytes
}

// WireTally returns the party's cumulative wire rounds and frame bytes.
func (p *Party) WireTally() (rounds, bytes uint64) { return p.wireRounds, p.wireBytes }

// observe stamps an event with the party's current wire tally, hashes it into
// the transcript digest and counts it. Every observation goes through here.
func (p *Party) observe(ev Event) {
	ev.WireRounds = p.wireRounds
	ev.WireBytes = p.wireBytes
	p.evbuf = appendEvent(p.evbuf[:0], ev)
	p.digest.Write(p.evbuf)
	p.events++
	if p.rec != nil {
		p.rec.Append(ev)
	}
}

// StoreShare saves one share under a key (e.g. the cardinality counter "c"
// or the noisy threshold "theta") and records the observation.
func (p *Party) StoreShare(t int, key string, share secretshare.Word) {
	p.store[key] = share
	p.observe(Event{Kind: EvShareReceived, Time: t, Share: share, Label: key})
}

// LoadShare returns the share stored under key.
func (p *Party) LoadShare(key string) (secretshare.Word, bool) {
	w, ok := p.store[key]
	return w, ok
}

// Runtime drives the protocol over its parties: both servers in-process
// (NewRuntime) or one server against a peer across a connection
// (NewPartyRuntime). Values recovered "inside the protocol" are handled by
// Runtime methods and never enter any party's transcript digest; only the
// events the paper's simulator reproduces are observable.
//
// Every protocol round (Round) is one frame each way per party over a Conn.
// The in-process runtime joins its two parties by a loopback pair and drives
// their halves in lockstep from the calling goroutine; cmd/incshrink-party
// runs a one-party runtime per process over TCP+TLS, blocking on the peer.
// Both execute the same Party halves and count identical logical frames, so
// substituting the network for the loopback changes nothing observable —
// same draws, same transcripts, same wire tallies.
//
// A Runtime (parties, meter, RNG streams, connections) is not safe for
// concurrent use: it is owned by exactly one engine, and the sweep engine
// (internal/runner) parallelizes at the cell level by giving every
// concurrently running engine its own Runtime with its own derived seed.
// Nothing in this package is shared between runtimes, so any number may run
// in parallel.
type Runtime struct {
	// Meter accumulates the modeled cost: one charge per joint operation,
	// however many parties the runtime drives.
	Meter *Meter
	ps    []*Party
	round Round
	now   int
}

// partyOn builds party id of a deployment over conn. Its private stream
// derives from the deployment seed, so every runtime of one deployment —
// in-process or one party per process — draws the same words.
func partyOn(id PartyID, seed int64, conn wire.Conn) *Party {
	p := NewParty(id, seed*3+1+int64(id))
	p.conn = conn
	return p
}

func newRuntime(model CostModel, ps ...*Party) *Runtime {
	r := &Runtime{Meter: NewMeter(model), ps: ps}
	r.round.rt = r
	return r
}

// NewRuntime builds the in-process runtime of both servers, joined by a
// loopback pair, with the given cost model and seed. The seed derives an
// independent stream for each party; the protocol itself draws nothing —
// every joint value XORs the two parties' own contributions.
func NewRuntime(model CostModel, seed int64) *Runtime {
	c0, c1 := wire.Loopback(1)
	return newRuntime(model, partyOn(Server0, seed, c0), partyOn(Server1, seed, c1))
}

// NewPartyRuntime builds the runtime of server id alone, whose peer is at the
// other end of conn. The seed is the deployment seed: the party's private
// stream is derived exactly as NewRuntime derives it, so a pair of one-party
// runtimes with the same deployment seed reproduces the in-process Runtime
// bit for bit.
func NewPartyRuntime(id PartyID, seed int64, model CostModel, conn wire.Conn) *Runtime {
	return newRuntime(model, partyOn(id, seed, conn))
}

// Party returns server id, or nil if the runtime does not drive it.
func (r *Runtime) Party(id PartyID) *Party {
	for _, p := range r.ps {
		if p.ID == id {
			return p
		}
	}
	return nil
}

// check panics on a transport error in the helpers below. Only the
// in-process engine calls them, over its loopback pair, which is buffered,
// in-process and never closed while the runtime lives — so an error here is
// a programming bug, not a condition engines should handle. A networked
// party drives its rounds through Round.Exchange, which returns typed
// errors instead.
func (r *Runtime) check(err error) {
	if err != nil {
		panic("mpc: loopback transport failed: " + err.Error())
	}
}

// WireTally returns the first party's cumulative wire rounds and frame
// bytes. The protocol is symmetric — every round moves one frame each way —
// so every party's tally is the same and stands for "the" per-party wire
// cost of the run.
func (r *Runtime) WireTally() (rounds, bytes uint64) { return r.ps[0].WireTally() }

// EncodeState writes the full mutable state of the runtime: each of its
// parties in order (randomness positions, share stores, transcript digests
// and event counts, wire tallies — so a crash-rejoined party with a fresh
// connection keeps attributing transcript events to the same positions in
// the wire conversation) and the cost meter. The party count is the
// runtime's: two for the in-process runtime, one for a party process. The
// seed, the cost model and the logical clock are not here: the clock belongs
// to the runtime's owner, which sets it (SetTime) before each step and on
// restore.
func (r *Runtime) EncodeState(e *snapshot.Encoder) {
	for _, p := range r.ps {
		p.encodeState(e)
	}
	r.Meter.encodeState(e)
}

// DecodeState reloads state written by EncodeState into a runtime
// constructed the same way, with the same seed and cost model: it reads one
// party section per party the runtime drives, then the meter. Every
// randomness stream resumes exactly where the snapshotted runtime stopped.
// Like the Decoder's own readers it latches its errors in d, and a section
// that fails a check loads nothing.
func (r *Runtime) DecodeState(d *snapshot.Decoder) {
	for _, p := range r.ps {
		p.decodeState(d)
	}
	r.Meter.decodeState(d)
}

// SetTime advances the logical clock used to stamp transcript events.
func (r *Runtime) SetTime(t int) { r.now = t }

// Round starts a new protocol round of the runtime's parties (see Round).
// The loopback pair holds one frame per direction, which is all a round
// sends.
func (r *Runtime) Round() *Round { return r.round.reset() }

// ShareToServers secret-shares a value computed inside the protocol and
// stores one share per server under key, using the Appendix A.2 re-sharing:
// both servers contribute randomness so neither can predict the split. It is
// a round of one re-share.
func (r *Runtime) ShareToServers(key string, value secretshare.Word) {
	rd := r.Round()
	i := rd.Reshare(key)
	r.check(rd.Exchange())
	rd.Share(i, value)
}

// RecoverInside reconstructs the value stored under key from both servers'
// shares without exposing it: the plaintext exists only inside the protocol
// (this function's return value) and is never observed by either party. A
// missing key surfaces as an error before either party sends.
func (r *Runtime) RecoverInside(key string) (secretshare.Word, error) {
	rd := r.Round()
	i := rd.Recover(key)
	if err := rd.Exchange(); err != nil {
		return 0, err
	}
	return rd.Recovered(i), nil
}

// JointLaplace draws Lap(scale) using joint randomness: one word for the
// magnitude, one for the sign, each the XOR of per-server contributions,
// both in one round. This is the paper's JointNoise(S0, S1, Delta, eps, .)
// with scale = Delta/eps. The Laplace circuit cost is charged to op.
func (r *Runtime) JointLaplace(scale float64, op Op) float64 {
	rd := r.Round()
	i := rd.Noise()
	r.check(rd.Exchange())
	return rd.Laplace(i, scale, op)
}

// observe records ev, stamped with the current time, in every party's
// transcript.
func (r *Runtime) observe(ev Event) {
	ev.Time = r.now
	for _, p := range r.ps {
		p.observe(ev)
	}
}

// ObserveBatch records that the servers saw an exhaustively padded batch of
// `size` tuples at the current time (Transform output entering the cache).
// The size is data-independent (always the padded maximum), which is why it
// is safe to reveal.
func (r *Runtime) ObserveBatch(size int, label string) {
	r.observe(Event{Kind: EvBatchObserved, Size: size, Label: label})
}

// ObserveFetch records a DP-sized synchronization of `size` tuples from the
// cache to the materialized view. This is the only data-dependent scalar in
// the servers' views; the DP analysis covers exactly this field.
func (r *Runtime) ObserveFetch(size int, label string) {
	r.observe(Event{Kind: EvFetchObserved, Size: size, Label: label})
}

// ObserveFlush records a fixed-size cache flush.
func (r *Runtime) ObserveFlush(size int, label string) {
	r.observe(Event{Kind: EvFlushObserved, Size: size, Label: label})
}
