package dp

import (
	crand "crypto/rand"
	"encoding/binary"
	"math/rand"

	"incshrink/internal/snapshot"
)

// Stream is the one seeded randomness stream of the protocol stack: each
// party's private words (joint noise, re-sharing, noisy thresholds) and the
// GMW dealer's tuples both draw from a Stream, and NewStream is the only way
// to build one. Both Uint32 and Uint64 cost one
// step of the underlying math/rand source, so the stream's position is a
// count of steps, and the stream writes that position into its owner's
// snapshot section itself (EncodeState, Resume). A restore rebuilds the
// source from the seed and fast-forwards to the recorded step, so the next
// word drawn is exactly the one the snapshotted process would have drawn:
// every DP guarantee in the system is an invariant over the whole update
// history, so a restart must not fork or replay any part of the noise
// stream.
//
// Resumption is lazy: Resume only records the target position, and the
// replay to reach it happens on the next draw. That keeps hostile inputs
// cheap — a decoder can set (bounded) targets without ever paying the
// replay, which only runs once a fully validated restore actually starts
// drawing again.
type Stream struct {
	seed   int64
	src    rand.Source64
	draws  uint64
	target uint64 // pending fast-forward position; caught up before the next draw
}

// NewStream returns the stream of seed at position zero. Its words are
// those of rand.New(rand.NewSource(seed)).
func NewStream(seed int64) *Stream {
	return &Stream{seed: seed, src: rand.NewSource(seed).(rand.Source64)}
}

// Uint32 implements RNG: the high 32 bits of one 63-bit step, as
// (*rand.Rand).Uint32 draws them.
func (s *Stream) Uint32() uint32 {
	s.step()
	return uint32(s.src.Int63() >> 31)
}

// Uint64 draws one full 64-bit step, as (*rand.Rand).Uint64 does.
func (s *Stream) Uint64() uint64 {
	s.step()
	return s.src.Uint64()
}

// step counts the draw about to be made, applying any pending fast-forward
// first.
func (s *Stream) step() {
	if s.draws < s.target {
		s.catchUp()
	}
	s.draws++
}

// catchUp replays the source to the pending resume target.
func (s *Stream) catchUp() {
	for s.draws < s.target {
		s.draws++
		s.src.Int63()
	}
}

// Draws returns the stream's logical position — draws made so far, or the
// pending resume target if ahead of them. This is the value a snapshot
// records, so snapshotting a restored-but-not-yet-used stream round-trips.
func (s *Stream) Draws() uint64 { return max(s.draws, s.target) }

// maxResumeDraws bounds the draw position a stream can be resumed to (and,
// symmetrically, the position past which a stream refuses to encode, so
// durability fails loudly at checkpoint time instead of silently producing
// unrestorable files). The source cannot seek, so resumption replays the
// stream draw by draw; 2^36 draws replay in minutes, and at tens of draws
// per time step correspond to a billion-step history — far past the
// practical size of a snapshot, whose view grows with every step.
const maxResumeDraws = 1 << 36

// EncodeState writes the stream's position, one U64. A position past the
// resumable bound fails the encode: the checkpoint must fail now, not the
// restore at the next boot.
func (s *Stream) EncodeState(e *snapshot.Encoder) {
	if s.Draws() > maxResumeDraws {
		e.Fail("draw position %d exceeds the resumable bound %d", s.Draws(), uint64(maxResumeDraws))
	}
	e.U64(s.Draws())
}

// Resume reads a position EncodeState wrote and returns s's stream rebuilt
// from its seed and resumed there (lazily, see Stream). s itself is not
// changed: its owner reads and checks the rest of its section, then loads
// the result. A position past the resumable bound — a corrupt or forged
// checkpoint — latches ErrCorrupt in d, and Resume returns nil once d holds
// an error.
func (s *Stream) Resume(d *snapshot.Decoder) *Stream {
	draws := d.U64()
	if d.Err() == nil && draws > maxResumeDraws {
		d.Corrupt("draw position %d exceeds the resumable bound %d", draws, uint64(maxResumeDraws))
	}
	if d.Err() != nil {
		return nil
	}
	r := NewStream(s.seed)
	r.target = draws
	return r
}

// FreshSeed returns a non-zero seed from the operating system's
// cryptographic generator, for a deployment that names none: two such
// deployments draw independent streams, up to the collisions of a 31-bit
// seed space (math/rand reduces every seed modulo 2^31-1).
func FreshSeed() int64 {
	var b [8]byte
	for {
		crand.Read(b[:]) // never fails: it crashes the process instead
		if seed := int64(binary.LittleEndian.Uint64(b[:])); seed != 0 {
			return seed
		}
	}
}
