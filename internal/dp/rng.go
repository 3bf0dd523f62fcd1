package dp

import "fmt"

// CountingRNG wraps an RNG with a draw counter, making the stream position
// serializable: a checkpoint records Draws(), and a restart reconstructs the
// same source from its seed and calls Discard to fast-forward to the exact
// word the crashed process would have drawn next. This is the mechanism that
// lets protocol randomness — joint noise, re-sharing, noisy thresholds —
// resume across a snapshot/restore cycle as if the process never stopped:
// every DP guarantee in the system is an invariant over the *whole* update
// history, so a restart must not fork or replay any part of the noise
// stream.
//
// The wrapper delegates to the underlying source unchanged, so wrapping an
// existing deterministic stream does not perturb it.
//
// Resumption is lazy: ResumeRNG only records the target position, and the
// replay to reach it happens on the next draw. That keeps hostile inputs
// cheap — a decoder can set (bounded) targets without ever paying the
// replay, which only runs once a fully validated restore actually starts
// drawing noise again.
type CountingRNG struct {
	src    RNG
	draws  uint64
	target uint64 // pending fast-forward position; caught up before the next draw
}

// NewCountingRNG wraps src with a draw counter starting at zero.
func NewCountingRNG(src RNG) *CountingRNG {
	return &CountingRNG{src: src}
}

// Uint32 implements RNG, counting the draw (applying any pending
// fast-forward first).
func (c *CountingRNG) Uint32() uint32 {
	if c.draws < c.target {
		c.catchUp()
	}
	c.draws++
	return c.src.Uint32()
}

// catchUp replays the source to the pending resume target.
func (c *CountingRNG) catchUp() {
	for c.draws < c.target {
		c.draws++
		c.src.Uint32()
	}
}

// Draws returns the stream's logical position — draws made so far, or the
// pending resume target if ahead of them. This is the value a snapshot
// records, so snapshotting a restored-but-not-yet-used stream round-trips.
func (c *CountingRNG) Draws() uint64 {
	if c.target > c.draws {
		return c.target
	}
	return c.draws
}

// MaxResumeDraws bounds the draw position a stream can be resumed to (and,
// symmetrically, the position past which snapshots refuse to encode, so
// durability fails loudly at checkpoint time instead of silently producing
// unrestorable files). The underlying sources cannot seek, so resumption
// replays the stream draw by draw; 2^36 draws replay in minutes, and at
// tens of draws per time step correspond to a billion-step history — far
// past the practical size of a snapshot, whose view grows with every step.
const MaxResumeDraws = 1 << 36

// ResumeRNG schedules a fast-forward of rng to the given draw position,
// applied lazily on the next draw. It fails when rng does not track draws
// (not a *CountingRNG) while a non-zero position must be restored, when
// rng has already advanced past the position, or when the position exceeds
// MaxResumeDraws (a corrupt or forged checkpoint).
func ResumeRNG(rng RNG, draws uint64) error {
	c, ok := rng.(*CountingRNG)
	if !ok {
		if draws == 0 {
			return nil
		}
		return fmt.Errorf("dp: cannot resume %d draws on a non-counting RNG (want *dp.CountingRNG)", draws)
	}
	if draws > MaxResumeDraws {
		return fmt.Errorf("dp: draw position %d exceeds the resumable bound %d", draws, uint64(MaxResumeDraws))
	}
	if c.Draws() > draws {
		return fmt.Errorf("dp: RNG already at draw %d, cannot rewind to %d", c.Draws(), draws)
	}
	c.target = draws
	return nil
}
