package dp

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"

	"incshrink/internal/snapshot"
)

// encodeStream writes s's position as a one-section snapshot stream.
func encodeStream(t *testing.T, s *Stream) []byte {
	t.Helper()
	var buf bytes.Buffer
	e := snapshot.NewEncoder(&buf)
	s.EncodeState(e)
	if err := e.Finish(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// resumeStream resumes from's seed at the position data holds.
func resumeStream(from *Stream, data []byte) (*Stream, error) {
	d := snapshot.NewDecoder(bytes.NewReader(data))
	r := from.Resume(d)
	if err := d.Err(); err != nil {
		return r, err
	}
	return r, d.Finish()
}

// TestStreamMatchesMathRand: a stream's words are those of
// rand.New(rand.NewSource(seed)), Uint32 and Uint64 alike, and each costs
// one position — the dealer's tuples and every party's words are unchanged
// by drawing through a Stream.
func TestStreamMatchesMathRand(t *testing.T) {
	s, ref := NewStream(7), rand.New(rand.NewSource(7))
	for i := 0; i < 64; i++ {
		if i%3 == 0 {
			if a, b := s.Uint64(), ref.Uint64(); a != b {
				t.Fatalf("draw %d: Uint64 %#x, math/rand %#x", i, a, b)
			}
		} else if a, b := s.Uint32(), ref.Uint32(); a != b {
			t.Fatalf("draw %d: Uint32 %#x, math/rand %#x", i, a, b)
		}
	}
	if s.Draws() != 64 {
		t.Fatalf("64 draws counted as %d", s.Draws())
	}
}

// TestStreamRefusesPositionPastBound: a position past the resumable bound is
// refused both ways — the encoder fails the checkpoint at once rather than
// the restore at the next boot, and a forged position decodes as ErrCorrupt
// with no stream — so no checkpoint can demand a replay the bound forbids.
func TestStreamRefusesPositionPastBound(t *testing.T) {
	past := NewStream(1)
	past.draws = maxResumeDraws + 1
	var buf bytes.Buffer
	e := snapshot.NewEncoder(&buf)
	past.EncodeState(e)
	if e.Finish() == nil {
		t.Error("encoded a draw position a restore would refuse")
	}

	var forged bytes.Buffer
	e = snapshot.NewEncoder(&forged)
	e.U64(maxResumeDraws + 1)
	if err := e.Finish(); err != nil {
		t.Fatal(err)
	}
	if r, err := resumeStream(NewStream(1), forged.Bytes()); !errors.Is(err, snapshot.ErrCorrupt) || r != nil {
		t.Errorf("a draw position past the bound resumed to %v, %v; want nil, ErrCorrupt", r, err)
	}
}

// TestResumeDrawBoundSymmetry pins the draw-position bound at the decoder:
// a forged position past it is ErrCorrupt, and a position at it — which a
// restore schedules lazily, without replaying — decodes and encodes back to
// the same bytes.
func TestResumeDrawBoundSymmetry(t *testing.T) {
	s := NewStream(1)
	s.Uint32()
	s.Uint32()
	good := encodeStream(t, s)
	// forged sets the position, the section's one field. The CRC-32C trailer
	// no longer matches; the section decoder does not read it.
	forged := func(draws uint64) []byte {
		b := bytes.Clone(good)
		binary.LittleEndian.PutUint64(b[len(snapshot.Magic):], draws)
		return b
	}
	d := snapshot.NewDecoder(bytes.NewReader(forged(maxResumeDraws + 1)))
	NewStream(1).Resume(d)
	if err := d.Err(); !errors.Is(err, snapshot.ErrCorrupt) {
		t.Fatalf("a draw position past the resumable bound: %v, want ErrCorrupt", err)
	}

	at := forged(maxResumeDraws)
	d = snapshot.NewDecoder(bytes.NewReader(at))
	restored := NewStream(1).Resume(d)
	if err := d.Err(); err != nil {
		t.Fatalf("a draw position at the resumable bound: %v", err)
	}
	if again := encodeStream(t, restored); !bytes.Equal(again[:len(again)-4], at[:len(at)-4]) {
		t.Fatal("a draw position at the resumable bound did not encode back")
	}
}

// TestLazyResumeMatchesUninterrupted pins the lazy catch-up: a stream
// resumed to position d produces the same words as one that actually drew
// d times, and re-snapshotting before any draw preserves the position.
func TestLazyResumeMatchesUninterrupted(t *testing.T) {
	ref := NewStream(5)
	for i := 0; i < 100; i++ {
		Laplace(1.0, ref)
	}
	snap := encodeStream(t, ref)

	// Resume from a stream of the same seed that has drawn elsewhere: the
	// result is rebuilt from the seed, whatever the receiver's position.
	elsewhere := NewStream(5)
	elsewhere.Uint32()
	restored, err := resumeStream(elsewhere, snap)
	if err != nil {
		t.Fatal(err)
	}
	// Snapshot again before drawing: the position must survive untouched.
	if again := encodeStream(t, restored); !bytes.Equal(snap, again) {
		t.Fatal("re-snapshot before first draw changed the stream position")
	}
	for i := 0; i < 16; i++ {
		if a, b := Laplace(1.0, ref), Laplace(1.0, restored); a != b {
			t.Fatalf("draw %d diverged after lazy resume", i)
		}
	}
	if a, b := ref.Uint64(), restored.Uint64(); a != b {
		t.Fatalf("Uint64 diverged after lazy resume: %#x, %#x", a, b)
	}
}

// TestFreshSeedsDiffer: FreshSeed never returns zero (Options.Seed's "no
// seed"), and two calls do not return the same seed.
func TestFreshSeedsDiffer(t *testing.T) {
	a, b := FreshSeed(), FreshSeed()
	if a == 0 || b == 0 || a == b {
		t.Fatalf("fresh seeds %d and %d", a, b)
	}
}
