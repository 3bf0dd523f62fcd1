package snapshot

import (
	"bytes"
	"crypto/sha256"
	"encoding"
	"errors"
	"testing"

	"incshrink/internal/dp"
	"incshrink/internal/mpc"
	"incshrink/internal/oblivious"
	"incshrink/internal/securearray"
	"incshrink/internal/table"
)

// sampleBuffer builds a buffer with a mix of real, dummy and edge-value
// slots.
func sampleBuffer(arity, n int) *oblivious.Buffer {
	b := oblivious.NewBuffer(arity, n)
	row := make(table.Row, arity)
	for i := 0; i < n; i++ {
		for j := range row {
			row[j] = int64(i*31+j) * 1664525
		}
		switch i % 3 {
		case 0:
			b.AppendSlot(row, true, 0, 0)
		case 1:
			b.AppendDummy()
		default:
			b.AppendSlot(row, false, 0, 0)
		}
	}
	return b
}

func encodeSection(t *testing.T, write func(*Encoder)) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	write(enc)
	if err := enc.Finish(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestBufferCodecRoundTrip pins exact reconstruction of every column,
// including the maintained real counter.
func TestBufferCodecRoundTrip(t *testing.T) {
	for _, arity := range []int{1, 2, 4} {
		for _, n := range []int{0, 1, 7, 129} {
			src := sampleBuffer(arity, n)
			data := encodeSection(t, func(e *Encoder) { EncodeBuffer(e, src) })
			// A slot is its row and its flag: 8·arity + 1 bytes, between the
			// magic, two ints, two length prefixes and the CRC.
			if want := len(Magic) + 16 + 8 + 4 + n*(8*arity+1); len(data) != want {
				t.Fatalf("arity=%d n=%d: section is %d bytes, want %d", arity, n, len(data), want)
			}

			dst := oblivious.NewBuffer(arity, 0)
			dec := NewDecoder(bytes.NewReader(data))
			if err := DecodeBufferInto(dec, dst); err != nil {
				t.Fatalf("arity=%d n=%d: %v", arity, n, err)
			}
			if err := dec.Finish(); err != nil {
				t.Fatal(err)
			}
			if dst.Len() != src.Len() || dst.Real() != src.Real() || dst.Real() != dst.ScanReal() {
				t.Fatalf("arity=%d n=%d: len/real (%d,%d) want (%d,%d)",
					arity, n, dst.Len(), dst.Real(), src.Len(), src.Real())
			}
			for i := 0; i < src.Len(); i++ {
				if dst.IsReal(i) != src.IsReal(i) {
					t.Fatalf("slot %d flag diverged", i)
				}
				for j := 0; j < arity; j++ {
					if dst.At(i, j) != src.At(i, j) {
						t.Fatalf("slot %d attr %d: %d want %d", i, j, dst.At(i, j), src.At(i, j))
					}
				}
			}
		}
	}
}

// TestCacheViewCodecRoundTrip covers the cache/view wrappers and their
// counters.
func TestCacheViewCodecRoundTrip(t *testing.T) {
	c := securearray.New(4, 256, nil)
	batch := sampleBuffer(4, 20)
	c.Append(batch)
	v := securearray.NewView(4)
	c.ReadInto(v, 5)
	c.Append(sampleBuffer(4, 8))

	data := encodeSection(t, func(e *Encoder) {
		EncodeCache(e, c)
		EncodeView(e, v)
	})

	c2 := securearray.New(4, 256, nil)
	v2 := securearray.NewView(4)
	dec := NewDecoder(bytes.NewReader(data))
	if err := DecodeCacheInto(dec, c2); err != nil {
		t.Fatal(err)
	}
	if err := DecodeViewInto(dec, v2); err != nil {
		t.Fatal(err)
	}
	if err := dec.Finish(); err != nil {
		t.Fatal(err)
	}
	if c2.Len() != c.Len() || c2.Real() != c.Real() || c2.MaxLen() != c.MaxLen() {
		t.Fatalf("cache (%d,%d,%d), want (%d,%d,%d)", c2.Len(), c2.Real(), c2.MaxLen(), c.Len(), c.Real(), c.MaxLen())
	}
	a1, r1, f1 := c.Stats()
	a2, r2, f2 := c2.Stats()
	if a1 != a2 || r1 != r2 || f1 != f2 {
		t.Fatalf("cache op counters (%d,%d,%d) want (%d,%d,%d)", a2, r2, f2, a1, r1, f1)
	}
	if v2.Len() != v.Len() || v2.Real() != v.Real() || v2.Updates() != v.Updates() {
		t.Fatalf("view (%d,%d,%d), want (%d,%d,%d)", v2.Len(), v2.Real(), v2.Updates(), v.Len(), v.Real(), v.Updates())
	}
}

// TestViewSectionIsBufferSection pins the format the column-major view
// keeps: its section is, byte for byte, EncodeBuffer of the row-major
// equivalent followed by the update counter — so snapshots written before
// the view was a column store still load, and ones written now load there —
// and decoding transposes it back exactly, counter included. The lengths
// end before, on and after the flag bitset's word boundaries.
func TestViewSectionIsBufferSection(t *testing.T) {
	for _, arity := range []int{1, 2, 4} {
		for _, n := range []int{0, 1, 7, 63, 64, 65, 129, 130} {
			rows := sampleBuffer(arity, n)
			v := securearray.NewView(arity)
			v.Update(rows)
			want := encodeSection(t, func(e *Encoder) {
				EncodeBuffer(e, rows)
				e.Int(1)
			})
			got := encodeSection(t, func(e *Encoder) { EncodeView(e, v) })
			if !bytes.Equal(got, want) {
				t.Fatalf("arity=%d n=%d: view section differs from the row-major buffer section", arity, n)
			}

			back := securearray.NewView(arity)
			back.Update(sampleBuffer(arity, 3)) // contents a restore must replace
			dec := NewDecoder(bytes.NewReader(got))
			if err := DecodeViewInto(dec, back); err != nil {
				t.Fatalf("arity=%d n=%d: %v", arity, n, err)
			}
			if err := dec.Finish(); err != nil {
				t.Fatal(err)
			}
			if back.Len() != n || back.Real() != rows.Real() || back.Real() != back.Count(nil) || back.Updates() != 1 {
				t.Fatalf("arity=%d n=%d: restored len/real/scan/updates (%d,%d,%d,%d), want (%d,%d,%d,1)",
					arity, n, back.Len(), back.Real(), back.Count(nil), back.Updates(), n, rows.Real(), rows.Real())
			}
			if again := encodeSection(t, func(e *Encoder) { EncodeView(e, back) }); !bytes.Equal(again, want) {
				t.Fatalf("arity=%d n=%d: restore then re-encode changed the bytes", arity, n)
			}
		}
	}
}

// TestRuntimeCodecResumesRandomness pins the RNG-resume invariant at the
// runtime level: after restore, both parties and the protocol stream
// produce exactly the words the snapshotted runtime would have produced.
func TestRuntimeCodecResumesRandomness(t *testing.T) {
	rt := mpc.NewRuntime(mpc.DefaultCostModel(), 42)
	rt.SetTime(3)
	rt.ShareToServers("c", 17)
	rt.JointLaplace(2.0, 0)
	rt.ObserveFetch(5, "shrink")

	data := encodeSection(t, func(e *Encoder) { EncodeRuntime(e, rt) })

	rt2 := mpc.NewRuntime(mpc.DefaultCostModel(), 42)
	// Perturb the fresh runtime first: restore must overwrite everything.
	rt2.ShareToServers("c", 999)
	rt2.JointRandomWord("noise")
	dec := NewDecoder(bytes.NewReader(data))
	if err := DecodeRuntimeInto(dec, rt2); err != nil {
		t.Fatal(err)
	}
	if err := dec.Finish(); err != nil {
		t.Fatal(err)
	}

	// The restored parties carry the snapshotted transcript digests, not the
	// perturbed runtime's.
	for _, pair := range [][2]*mpc.Party{{rt.S0, rt2.S0}, {rt.S1, rt2.S1}} {
		p, p2 := pair[0], pair[1]
		if p.TranscriptDigest() != p2.TranscriptDigest() || p.EventCount() != p2.EventCount() {
			t.Fatalf("%v transcript digest / event count not restored", p.ID)
		}
	}

	if got, _ := rt2.RecoverInside("c"); got != 17 {
		t.Fatalf("recovered counter %d, want 17", got)
	}
	if rt.Now() != rt2.Now() {
		t.Fatalf("clock %d, want %d", rt2.Now(), rt.Now())
	}
	// The next joint draws must coincide word for word.
	for i := 0; i < 8; i++ {
		if a, b := rt.JointRandomWord("t"), rt2.JointRandomWord("t"); a != b {
			t.Fatalf("draw %d diverged: %08x vs %08x", i, b, a)
		}
	}
	if rt.Meter.TotalGates() != rt2.Meter.TotalGates() {
		t.Fatalf("meter gates %v, want %v", rt2.Meter.TotalGates(), rt.Meter.TotalGates())
	}
}

// TestDecoderRejectsDamage drives the typed error paths of the codec frame.
func TestDecoderRejectsDamage(t *testing.T) {
	src := sampleBuffer(2, 9)
	good := encodeSection(t, func(e *Encoder) { EncodeBuffer(e, src) })

	fresh := func() *oblivious.Buffer { return oblivious.NewBuffer(2, 0) }

	t.Run("truncated", func(t *testing.T) {
		for cut := 0; cut < len(good); cut++ {
			dec := NewDecoder(bytes.NewReader(good[:cut]))
			err := DecodeBufferInto(dec, fresh())
			if err == nil {
				err = dec.Finish()
			}
			if err == nil {
				t.Fatalf("decode of %d/%d bytes succeeded", cut, len(good))
			}
		}
	})

	t.Run("crc", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[len(bad)-5] ^= 1 // inside the last payload word, not the CRC field
		dec := NewDecoder(bytes.NewReader(bad))
		err := DecodeBufferInto(dec, fresh())
		if err == nil {
			err = dec.Finish()
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("want ErrCorrupt, got %v", err)
		}
	})

	t.Run("bad-magic", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[3] ^= 0x40
		dec := NewDecoder(bytes.NewReader(bad))
		if err := DecodeBufferInto(dec, fresh()); !errors.Is(err, ErrBadMagic) {
			t.Fatalf("want ErrBadMagic, got %v", err)
		}
	})

	t.Run("arity-mismatch", func(t *testing.T) {
		dec := NewDecoder(bytes.NewReader(good))
		if err := DecodeBufferInto(dec, oblivious.NewBuffer(3, 0)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("want ErrCorrupt for arity mismatch, got %v", err)
		}
	})

	t.Run("hostile-length", func(t *testing.T) {
		// A forged 4-billion-slot length prefix must error out after the
		// bytes actually present, not allocate terabytes.
		var buf bytes.Buffer
		enc := NewEncoder(&buf)
		enc.Int(2)          // arity
		enc.Int(1 << 30)    // slots
		enc.U32(0xffffffff) // payload length prefix
		if err := enc.Finish(); err != nil {
			t.Fatal(err)
		}
		dec := NewDecoder(bytes.NewReader(buf.Bytes()))
		err := DecodeBufferInto(dec, fresh())
		if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("want truncated/corrupt, got %v", err)
		}
	})

	// The party section's transcript-hash state: a damaged one must be
	// ErrCorrupt — not a panic, and not a restore that quietly starts a fresh
	// digest. Each case patches S0's field in a good runtime section.
	rt := mpc.NewRuntime(mpc.DefaultCostModel(), 42)
	rt.ShareToServers("c", 17)
	rt.ObserveFetch(5, "shrink")
	section := encodeSection(t, func(e *Encoder) { EncodeRuntime(e, rt) })
	at := bytes.Index(section, rt.State().S0.Digest)
	if at < 4 {
		t.Fatal("S0's marshaled hash state not found in the runtime section")
	}
	for _, c := range []struct {
		name   string
		damage func(b []byte)
	}{
		// The length prefix disagrees with the one length a SHA-256 state has.
		{"digest-length", func(b []byte) { b[at-4]-- }},
		// Right length, first magic byte flipped.
		{"digest-magic", func(b []byte) { b[at] ^= 0x40 }},
		// Right length and a well-formed state — of SHA-224, which
		// UnmarshalBinary on a SHA-256 refuses.
		{"digest-unmarshal", func(b []byte) {
			h := sha256.New224()
			h.Write([]byte("some other hash"))
			foreign, err := h.(encoding.BinaryMarshaler).MarshalBinary()
			if err != nil || len(foreign) != mpc.DigestStateLen {
				t.Fatalf("foreign state: %d bytes, %v", len(foreign), err)
			}
			copy(b[at:], foreign)
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			bad := bytes.Clone(section)
			c.damage(bad)
			target := mpc.NewRuntime(mpc.DefaultCostModel(), 42)
			target.ObserveBatch(8, "transform")
			before := target.S0.TranscriptDigest()
			err := DecodeRuntimeInto(NewDecoder(bytes.NewReader(bad)), target)
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("want ErrCorrupt, got %v", err)
			}
			if target.S0.TranscriptDigest() != before {
				t.Fatal("a refused hash state still replaced the party's digest")
			}
		})
	}
}

// TestResumeDrawBoundSymmetry pins that the draw-position bound is
// enforced at both ends: a position too large to replay refuses to encode
// (the checkpoint fails loudly now, not the restore later), and a forged
// position past the bound refuses to decode.
func TestResumeDrawBoundSymmetry(t *testing.T) {
	rt := mpc.NewRuntime(mpc.DefaultCostModel(), 1)
	rt.JointRandomWord("x")
	st := rt.State()
	st.S0.Draws = uint64(dp.MaxResumeDraws) + 1
	if err := rt.SetState(st); err == nil {
		t.Fatal("SetState accepted a draw position beyond the resumable bound")
	}

	// Encode side: a runtime whose recorded position exceeds the bound must
	// fail at Finish, not write an unrestorable stream. Build the stream by
	// hand (a real runtime cannot reach the bound in a test).
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	encodePartyState(enc, st.S0)
	if err := enc.Finish(); err == nil {
		t.Fatal("encoded a party state beyond the resumable draw bound")
	}

	// The same holds for the other field a restore refuses: a transcript-hash
	// state of the wrong length.
	st = rt.State()
	st.S0.Digest = st.S0.Digest[:len(st.S0.Digest)-1]
	enc = NewEncoder(&buf)
	encodePartyState(enc, st.S0)
	if err := enc.Finish(); err == nil {
		t.Fatal("encoded a party state whose hash state a restore would refuse")
	}
}

// TestLazyResumeMatchesUninterrupted pins the lazy catch-up: a stream
// resumed to position d produces the same words as one that actually drew
// d times, and re-snapshotting before any draw preserves the position.
func TestLazyResumeMatchesUninterrupted(t *testing.T) {
	ref := mpc.NewRuntime(mpc.DefaultCostModel(), 5)
	for i := 0; i < 100; i++ {
		ref.JointRandomWord("w")
	}
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	EncodeRuntime(enc, ref)
	if err := enc.Finish(); err != nil {
		t.Fatal(err)
	}

	restored := mpc.NewRuntime(mpc.DefaultCostModel(), 5)
	dec := NewDecoder(bytes.NewReader(buf.Bytes()))
	if err := DecodeRuntimeInto(dec, restored); err != nil {
		t.Fatal(err)
	}
	if err := dec.Finish(); err != nil {
		t.Fatal(err)
	}
	// Snapshot again before drawing: the position must survive untouched.
	var again bytes.Buffer
	enc2 := NewEncoder(&again)
	EncodeRuntime(enc2, restored)
	if err := enc2.Finish(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Fatal("re-snapshot before first draw changed the stream position")
	}
	for i := 0; i < 16; i++ {
		if a, b := ref.JointRandomWord("w"), restored.JointRandomWord("w"); a != b {
			t.Fatalf("draw %d diverged after lazy resume", i)
		}
	}
}

// TestHeaderVersionMismatch pins the version gate: a future version and the
// previous one (v6, whose runtime section carried one more draw position —
// there is no compatibility reader) are both refused.
func TestHeaderVersionMismatch(t *testing.T) {
	if Version != 7 {
		t.Fatalf("format version %d, want 7", Version)
	}
	for _, v := range []uint32{Version + 7, 6} {
		var buf bytes.Buffer
		enc := NewEncoder(&buf)
		enc.U32(v)
		enc.U64(123)
		if err := enc.Finish(); err != nil {
			t.Fatal(err)
		}
		dec := NewDecoder(bytes.NewReader(buf.Bytes()))
		if _, err := ReadHeader(dec); !errors.Is(err, ErrVersionMismatch) {
			t.Fatalf("version %d: want ErrVersionMismatch, got %v", v, err)
		}
	}
}

// TestFingerprintDistinguishesParts guards against ambiguity: the part
// boundaries are part of the hash.
func TestFingerprintDistinguishesParts(t *testing.T) {
	if Fingerprint("ab", "c") == Fingerprint("a", "bc") {
		t.Fatal("fingerprint ignores part boundaries")
	}
	if Fingerprint("x") == Fingerprint("x", "") {
		t.Fatal("fingerprint ignores empty trailing parts")
	}
}
