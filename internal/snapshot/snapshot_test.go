package snapshot_test

// The section tests are an external test package: each section is written
// by the package that owns its state, and those packages import snapshot.

import (
	"bytes"
	"crypto/sha256"
	"encoding"
	"encoding/binary"
	"errors"
	"slices"
	"sync"
	"testing"

	"incshrink/internal/mpc"
	"incshrink/internal/oblivious"
	"incshrink/internal/securearray"
	"incshrink/internal/snapshot"
	"incshrink/internal/table"
	"incshrink/internal/wire"
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
			b.AppendDummies(1)
		default:
			b.AppendSlot(row, false, 0, 0)
		}
	}
	return b
}

func encodeSection(t *testing.T, write func(*snapshot.Encoder)) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := snapshot.NewEncoder(&buf)
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
			data := encodeSection(t, src.EncodeState)
			// A slot is its row and its flag: 8·arity + 1 bytes, between the
			// magic, two ints, two length prefixes and the CRC.
			if want := len(snapshot.Magic) + 16 + 8 + 4 + n*(8*arity+1); len(data) != want {
				t.Fatalf("arity=%d n=%d: section is %d bytes, want %d", arity, n, len(data), want)
			}

			dst := oblivious.NewBuffer(arity, 0)
			dec := snapshot.NewDecoder(bytes.NewReader(data))
			dst.DecodeState(dec)
			if err := dec.Err(); err != nil {
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

// TestCacheViewCodecRoundTrip covers the cache/view wrappers: the cache's
// arena, the view's slots and update counter.
func TestCacheViewCodecRoundTrip(t *testing.T) {
	c := securearray.New(4, 256, nil)
	batch := sampleBuffer(4, 20)
	c.Append(batch)
	v := securearray.NewView(4)
	c.ReadAndPruneInto(v, 12, 0, c.Len())
	c.Append(sampleBuffer(4, 8))

	data := encodeSection(t, func(e *snapshot.Encoder) {
		c.EncodeState(e)
		v.EncodeState(e)
	})

	c2 := securearray.New(4, 256, nil)
	v2 := securearray.NewView(4)
	dec := snapshot.NewDecoder(bytes.NewReader(data))
	c2.DecodeState(dec)
	if err := dec.Err(); err != nil {
		t.Fatal(err)
	}
	v2.DecodeState(dec)
	if err := dec.Err(); err != nil {
		t.Fatal(err)
	}
	if err := dec.Finish(); err != nil {
		t.Fatal(err)
	}
	if c2.Len() != c.Len() || c2.Real() != c.Real() {
		t.Fatalf("cache (%d,%d), want (%d,%d)", c2.Len(), c2.Real(), c.Len(), c.Real())
	}
	if v2.Len() != v.Len() || v2.Real() != v.Real() || v2.Updates() != v.Updates() {
		t.Fatalf("view (%d,%d,%d), want (%d,%d,%d)", v2.Len(), v2.Real(), v2.Updates(), v.Len(), v.Real(), v.Updates())
	}
}

// TestViewSectionIsViewAsHeld pins the view section's layout — arity and
// slot count, each column, the ⌈n/64⌉ packed flag words, the update counter
// — and that decoding replaces a view's contents exactly: length, real count
// (the popcount of the words), scan and counter, and re-encodes to the same
// bytes. The lengths end before, on and after the flag words' boundaries.
func TestViewSectionIsViewAsHeld(t *testing.T) {
	for _, arity := range []int{1, 2, 4} {
		for _, n := range []int{0, 1, 7, 63, 64, 65, 129, 130} {
			rows := sampleBuffer(arity, n)
			v := securearray.NewView(arity)
			v.Update(rows)
			got := encodeSection(t, v.EncodeState)
			// Between the magic and the CRC: two ints, arity length-prefixed
			// columns of n words, the length-prefixed flag words, one int.
			if want := len(snapshot.Magic) + 16 + arity*(4+8*n) + 4 + 8*((n+63)/64) + 8 + 4; len(got) != want {
				t.Fatalf("arity=%d n=%d: view section is %d bytes, want %d", arity, n, len(got), want)
			}

			back := securearray.NewView(arity)
			back.Update(sampleBuffer(arity, 3)) // contents a restore must replace
			dec := snapshot.NewDecoder(bytes.NewReader(got))
			back.DecodeState(dec)
			if err := dec.Err(); err != nil {
				t.Fatalf("arity=%d n=%d: %v", arity, n, err)
			}
			if err := dec.Finish(); err != nil {
				t.Fatal(err)
			}
			if back.Len() != n || back.Real() != rows.Real() || back.Real() != back.Count(nil) || back.Updates() != 1 {
				t.Fatalf("arity=%d n=%d: restored len/real/scan/updates (%d,%d,%d,%d), want (%d,%d,%d,1)",
					arity, n, back.Len(), back.Real(), back.Count(nil), back.Updates(), n, rows.Real(), rows.Real())
			}
			if again := encodeSection(t, back.EncodeState); !bytes.Equal(again, got) {
				t.Fatalf("arity=%d n=%d: restore then re-encode changed the bytes", arity, n)
			}
		}
	}
}

// TestViewDecodeRejectsCorruptSections drives each check of the view
// decoder over a well-framed section that no view could have written.
func TestViewDecodeRejectsCorruptSections(t *testing.T) {
	const arity, n = 2, 70
	v := securearray.NewView(arity)
	v.Update(sampleBuffer(arity, n))
	// The view's columns and flag words, read back out of its own section.
	dec := snapshot.NewDecoder(bytes.NewReader(encodeSection(t, v.EncodeState)))
	dec.Int()
	dec.Int()
	cols := [][]int64{dec.I64s(), dec.I64s()}
	flag := dec.U64s()
	if dec.Err() != nil || len(flag) != 2 {
		t.Fatalf("view section: %v, %d flag words", dec.Err(), len(flag))
	}
	// section writes a view section field by field.
	section := func(arity, n int, cols [][]int64, flag []uint64, updates int) []byte {
		return encodeSection(t, func(e *snapshot.Encoder) {
			e.Int(arity)
			e.Int(n)
			for _, col := range cols {
				e.I64s(col)
			}
			e.U64s(flag)
			e.Int(updates)
		})
	}
	past := slices.Clone(flag)
	past[1] |= 1 // slot 127, past the 70 the view holds
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"valid", section(arity, n, cols, flag, 1), nil},
		{"arity", section(arity+1, n, append(slices.Clone(cols), cols[0]), flag, 1), snapshot.ErrCorrupt},
		{"negative length", section(arity, -1, cols, flag, 1), snapshot.ErrCorrupt},
		{"short column", section(arity, n, [][]int64{cols[0], cols[1][:n-1]}, flag, 1), snapshot.ErrCorrupt},
		{"flag words short", section(arity, n, cols, flag[:1], 1), snapshot.ErrCorrupt},
		{"flag words long", section(arity, n, cols, append(slices.Clone(flag), 0), 1), snapshot.ErrCorrupt},
		{"flag past the end", section(arity, n, cols, past, 1), snapshot.ErrCorrupt},
		{"negative updates", section(arity, n, cols, flag, -1), snapshot.ErrCorrupt},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			back := securearray.NewView(arity)
			dec := snapshot.NewDecoder(bytes.NewReader(c.data))
			back.DecodeState(dec)
			err := dec.Err()
			if err == nil {
				err = dec.Finish()
			}
			if !errors.Is(err, c.want) {
				t.Fatalf("decode error %v, want %v", err, c.want)
			}
			if c.want == nil && (back.Len() != n || back.Real() != v.Real()) {
				t.Fatalf("decoded %d slots, %d real; want %d, %d", back.Len(), back.Real(), n, v.Real())
			}
		})
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

	data := encodeSection(t, rt.EncodeState)

	rt2 := mpc.NewRuntime(mpc.DefaultCostModel(), 42)
	// Perturb the fresh runtime first: restore must overwrite everything.
	rt2.ShareToServers("c", 999)
	rt2.JointLaplace(1.0, mpc.OpOther)
	dec := snapshot.NewDecoder(bytes.NewReader(data))
	rt2.DecodeState(dec)
	if err := dec.Err(); err != nil {
		t.Fatal(err)
	}
	if err := dec.Finish(); err != nil {
		t.Fatal(err)
	}

	// The restored parties carry the snapshotted transcript digests, not the
	// perturbed runtime's.
	for _, id := range []mpc.PartyID{mpc.Server0, mpc.Server1} {
		p, p2 := rt.Party(id), rt2.Party(id)
		if p.TranscriptDigest() != p2.TranscriptDigest() || p.EventCount() != p2.EventCount() {
			t.Fatalf("%v transcript digest / event count not restored", p.ID)
		}
	}

	if got, _ := rt2.RecoverInside("c"); got != 17 {
		t.Fatalf("recovered counter %d, want 17", got)
	}
	// The next joint draws must coincide word for word.
	for i := 0; i < 8; i++ {
		if a, b := rt.JointLaplace(1.0, mpc.OpOther), rt2.JointLaplace(1.0, mpc.OpOther); a != b {
			t.Fatalf("draw %d diverged: %v vs %v", i, b, a)
		}
	}
	if rt.Meter.TotalGates() != rt2.Meter.TotalGates() {
		t.Fatalf("meter gates %v, want %v", rt2.Meter.TotalGates(), rt.Meter.TotalGates())
	}
}

// driveRounds runs a session's protocol steps on rt: every step is one round
// that re-shares the next counter, draws joint Laplace noise and recovers
// the counter the previous step re-shared, then records the public
// observations. It returns the values the protocol opened.
func driveRounds(rt *mpc.Runtime, ids []mpc.PartyID, steps int) ([]float64, error) {
	for _, id := range ids {
		rt.Party(id).StoreShare(0, "c", 0)
	}
	var opened []float64
	for t := range steps {
		rt.SetTime(t)
		rd := rt.Round()
		share, noise, c := rd.Reshare("c"), rd.Noise(), rd.Recover("c")
		if err := rd.Exchange(); err != nil {
			return nil, err
		}
		v := rd.Recovered(c)
		rd.Share(share, v+uint32(t)+1)
		opened = append(opened, float64(v), rd.Laplace(noise, 2.5, mpc.OpShrink))
		rt.ObserveBatch(8, "transform")
		rt.ObserveFetch(t%5, "shrink")
		rt.ObserveFlush(4, "flush")
	}
	return opened, nil
}

// TestRuntimeEqualsPairOfPartyRuntimes: the in-process runtime and a pair of
// one-party runtimes over a loopback connection, each driven from its own
// goroutine, open the same values and end in the same state — every party's
// draws, share store, transcript digest, event count and wire tally, and
// the meter — and the in-process runtime's section is the two one-party
// sections' party states back to back, then the shared meter.
func TestRuntimeEqualsPairOfPartyRuntimes(t *testing.T) {
	const seed, steps = 21, 9
	model := mpc.DefaultCostModel()
	both := mpc.NewRuntime(model, seed)
	want, err := driveRounds(both, []mpc.PartyID{mpc.Server0, mpc.Server1}, steps)
	if err != nil {
		t.Fatal(err)
	}

	c0, c1 := wire.Loopback(1)
	defer c0.Close()
	defer c1.Close()
	var one [2]*mpc.Runtime
	var opened [2][]float64
	var errs [2]error
	var wg sync.WaitGroup
	for i, conn := range []wire.Conn{c0, c1} {
		id := mpc.PartyID(i)
		one[i] = mpc.NewPartyRuntime(id, seed, model, conn)
		wg.Add(1)
		go func() {
			defer wg.Done()
			opened[i], errs[i] = driveRounds(one[i], []mpc.PartyID{id}, steps)
		}()
	}
	wg.Wait()

	// body is a section's bytes without the stream's magic and CRC-32C
	// trailer.
	body := func(write func(*snapshot.Encoder)) []byte {
		b := encodeSection(t, write)
		return b[len(snapshot.Magic) : len(b)-4]
	}
	// The meter's section: its phase count, then each phase's gates.
	ops := []mpc.Op{mpc.OpTransform, mpc.OpShrink, mpc.OpQuery, mpc.OpOther}
	tail := body(func(e *snapshot.Encoder) {
		e.U32(uint32(len(ops)))
		for _, op := range ops {
			e.F64(both.Meter.Gates(op))
		}
	})
	var joined []byte
	for i, r := range one {
		if errs[i] != nil {
			t.Fatalf("party %d: %v", i, errs[i])
		}
		if !slices.Equal(opened[i], want) {
			t.Errorf("party %d opened %v, the in-process runtime %v", i, opened[i], want)
		}
		party, ok := bytes.CutSuffix(body(r.EncodeState), tail)
		if !ok {
			t.Fatalf("party %d section does not end in the in-process runtime's meter", i)
		}
		joined = append(joined, party...)
	}
	if !bytes.Equal(body(both.EncodeState), append(joined, tail...)) {
		t.Error("the in-process runtime's section is not its parties' one-party sections joined")
	}
}

// TestDecoderRejectsDamage drives the typed error paths of the codec frame.
func TestDecoderRejectsDamage(t *testing.T) {
	src := sampleBuffer(2, 9)
	good := encodeSection(t, src.EncodeState)

	fresh := func() *oblivious.Buffer { return oblivious.NewBuffer(2, 0) }

	t.Run("truncated", func(t *testing.T) {
		for cut := 0; cut < len(good); cut++ {
			dec := snapshot.NewDecoder(bytes.NewReader(good[:cut]))
			fresh().DecodeState(dec)
			err := dec.Err()
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
		dec := snapshot.NewDecoder(bytes.NewReader(bad))
		fresh().DecodeState(dec)
		err := dec.Err()
		if err == nil {
			err = dec.Finish()
		}
		if !errors.Is(err, snapshot.ErrCorrupt) {
			t.Fatalf("want ErrCorrupt, got %v", err)
		}
	})

	t.Run("bad-magic", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[3] ^= 0x40
		dec := snapshot.NewDecoder(bytes.NewReader(bad))
		fresh().DecodeState(dec)
		if err := dec.Err(); !errors.Is(err, snapshot.ErrBadMagic) {
			t.Fatalf("want ErrBadMagic, got %v", err)
		}
	})

	t.Run("arity-mismatch", func(t *testing.T) {
		dec := snapshot.NewDecoder(bytes.NewReader(good))
		oblivious.NewBuffer(3, 0).DecodeState(dec)
		if err := dec.Err(); !errors.Is(err, snapshot.ErrCorrupt) {
			t.Fatalf("want ErrCorrupt for arity mismatch, got %v", err)
		}
	})

	t.Run("hostile-length", func(t *testing.T) {
		// A forged 4-billion-slot length prefix must error out after the
		// bytes actually present, not allocate terabytes.
		var buf bytes.Buffer
		enc := snapshot.NewEncoder(&buf)
		enc.Int(2)          // arity
		enc.Int(1 << 30)    // slots
		enc.U32(0xffffffff) // payload length prefix
		if err := enc.Finish(); err != nil {
			t.Fatal(err)
		}
		dec := snapshot.NewDecoder(bytes.NewReader(buf.Bytes()))
		fresh().DecodeState(dec)
		err := dec.Err()
		if !errors.Is(err, snapshot.ErrTruncated) && !errors.Is(err, snapshot.ErrCorrupt) {
			t.Fatalf("want truncated/corrupt, got %v", err)
		}
	})

	// The party section's transcript-hash state: a damaged one must be
	// ErrCorrupt — not a panic, and not a restore that quietly starts a fresh
	// digest. Each case patches S0's field in a good runtime section, which
	// the marshaled SHA-256 state's magic locates.
	rt := mpc.NewRuntime(mpc.DefaultCostModel(), 42)
	rt.ShareToServers("c", 17)
	rt.ObserveFetch(5, "shrink")
	section := encodeSection(t, rt.EncodeState)
	at := bytes.Index(section, []byte("sha\x03"))
	if at < 4 {
		t.Fatal("S0's marshaled hash state not found in the runtime section")
	}
	stateLen := int(binary.LittleEndian.Uint32(section[at-4:]))
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
			if err != nil || len(foreign) != stateLen {
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
			before := target.Party(mpc.Server0).TranscriptDigest()
			dec := snapshot.NewDecoder(bytes.NewReader(bad))
			target.DecodeState(dec)
			err := dec.Err()
			if !errors.Is(err, snapshot.ErrCorrupt) {
				t.Fatalf("want ErrCorrupt, got %v", err)
			}
			if target.Party(mpc.Server0).TranscriptDigest() != before {
				t.Fatal("a refused hash state still replaced the party's digest")
			}
		})
	}
}

// TestHeaderVersionMismatch pins the version gate: a future version and the
// previous one (v8, whose view section was row-major with a flag byte per
// slot, whose carry rows carried their tag and arrival step in join order,
// and which held three copies of the clock and the cache's high-water mark —
// there is no compatibility reader) are both refused.
func TestHeaderVersionMismatch(t *testing.T) {
	if snapshot.Version != 9 {
		t.Fatalf("format version %d, want 9", snapshot.Version)
	}
	for _, v := range []uint32{snapshot.Version + 7, 8} {
		var buf bytes.Buffer
		enc := snapshot.NewEncoder(&buf)
		enc.U32(v)
		enc.U64(123)
		if err := enc.Finish(); err != nil {
			t.Fatal(err)
		}
		dec := snapshot.NewDecoder(bytes.NewReader(buf.Bytes()))
		if _, err := snapshot.ReadHeader(dec); !errors.Is(err, snapshot.ErrVersionMismatch) {
			t.Fatalf("version %d: want snapshot.ErrVersionMismatch, got %v", v, err)
		}
	}
}

// TestFingerprintDistinguishesParts guards against ambiguity: the part
// boundaries are part of the hash.
func TestFingerprintDistinguishesParts(t *testing.T) {
	if snapshot.Fingerprint("ab", "c") == snapshot.Fingerprint("a", "bc") {
		t.Fatal("fingerprint ignores part boundaries")
	}
	if snapshot.Fingerprint("x") == snapshot.Fingerprint("x", "") {
		t.Fatal("fingerprint ignores empty trailing parts")
	}
}
