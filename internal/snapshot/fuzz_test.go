package snapshot_test

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"incshrink/internal/mpc"
	"incshrink/internal/oblivious"
	"incshrink/internal/securearray"
	"incshrink/internal/snapshot"
	"incshrink/internal/table"
)

// FuzzDecodeBuffer feeds arbitrary bytes to the stream decoder. The
// contract under hostile input is: typed error or clean success — never a
// panic, never an unbounded allocation, and on success the maintained real
// counter must equal a full scan. Seed corpus lives in
// testdata/fuzz/FuzzDecodeBuffer (valid encodings plus framing edge cases).
func FuzzDecodeBuffer(f *testing.F) {
	for _, n := range []int{0, 3, 40} {
		var buf bytes.Buffer
		enc := snapshot.NewEncoder(&buf)
		fuzzBuffer(2, n).EncodeState(enc)
		if err := enc.Finish(); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte(snapshot.Magic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		dec := snapshot.NewDecoder(bytes.NewReader(data))
		dst := oblivious.NewBuffer(2, 0)
		dst.DecodeState(dec)
		if err := dec.Err(); err != nil {
			return
		}
		if err := dec.Finish(); err != nil {
			return
		}
		if dst.Real() != dst.ScanReal() {
			t.Fatalf("decoded buffer real counter %d != scan %d", dst.Real(), dst.ScanReal())
		}
		// Whatever decodes as a buffer is also a view's contents: transposed
		// onto columns it keeps its count, and its view section decodes to a
		// view that counts the same and encodes back to the same bytes.
		v := securearray.NewView(2)
		v.Update(dst)
		if v.Real() != dst.Real() || v.Count(nil) != dst.Real() {
			t.Fatalf("view of the decoded buffer counts %d (scan %d), buffer %d", v.Real(), v.Count(nil), dst.Real())
		}
		var a, b bytes.Buffer
		ea := snapshot.NewEncoder(&a)
		v.EncodeState(ea)
		if err := ea.Finish(); err != nil {
			t.Fatal(err)
		}
		back := securearray.NewView(2)
		dv := snapshot.NewDecoder(bytes.NewReader(a.Bytes()))
		back.DecodeState(dv)
		if err := dv.Err(); err != nil || dv.Finish() != nil {
			t.Fatalf("a view's own section does not decode: %v", err)
		}
		eb := snapshot.NewEncoder(&b)
		back.EncodeState(eb)
		if eb.Finish() != nil || !bytes.Equal(a.Bytes(), b.Bytes()) || back.Real() != dst.Real() {
			t.Fatal("view section -> restore -> section changed the bytes or the count")
		}
	})
}

// FuzzDecodeRuntime is FuzzDecodeBuffer for the runtime section: share
// stores, transcript-hash states, RNG positions and the meter, decoded from
// arbitrary bytes into a live runtime.
func FuzzDecodeRuntime(f *testing.F) {
	rt := mpc.NewRuntime(mpc.DefaultCostModel(), 9)
	rt.ShareToServers("c", 4)
	rt.JointLaplace(1.5, mpc.OpShrink)
	var buf bytes.Buffer
	enc := snapshot.NewEncoder(&buf)
	rt.EncodeState(enc)
	if err := enc.Finish(); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(snapshot.Magic))
	f.Fuzz(func(t *testing.T, data []byte) {
		target := mpc.NewRuntime(mpc.DefaultCostModel(), 9)
		dec := snapshot.NewDecoder(bytes.NewReader(data))
		target.DecodeState(dec)
		if err := dec.Err(); err != nil {
			return
		}
		dec.Finish()
	})
}

// FuzzBufferRoundTrip fuzzes the property decode(encode(x)) == x over
// arbitrary buffer contents: the fuzzer controls every column value, the
// arity and the slot mix.
func FuzzBufferRoundTrip(f *testing.F) {
	f.Add(uint8(2), []byte{1, 2, 3, 4, 5, 6, 7, 8, 0, 1})
	f.Add(uint8(4), []byte{})
	f.Add(uint8(1), bytes.Repeat([]byte{0xff}, 64))
	f.Fuzz(func(t *testing.T, arity uint8, raw []byte) {
		ar := int(arity%6) + 1
		src := oblivious.NewBuffer(ar, 0)
		row := make(table.Row, ar)
		// Consume raw in (flag byte, ar*8 payload bytes) chunks.
		for len(raw) >= 1+ar*8 {
			flagByte := raw[0]
			raw = raw[1:]
			for j := 0; j < ar; j++ {
				row[j] = int64(binary.LittleEndian.Uint64(raw[j*8:]))
			}
			raw = raw[ar*8:]
			src.AppendSlot(row, flagByte&1 == 1, 0, 0)
		}

		var buf bytes.Buffer
		enc := snapshot.NewEncoder(&buf)
		src.EncodeState(enc)
		if err := enc.Finish(); err != nil {
			t.Fatal(err)
		}
		dst := oblivious.NewBuffer(ar, 0)
		dec := snapshot.NewDecoder(bytes.NewReader(buf.Bytes()))
		dst.DecodeState(dec)
		if err := dec.Err(); err != nil {
			t.Fatalf("round trip decode: %v", err)
		}
		if err := dec.Finish(); err != nil {
			t.Fatalf("round trip trailer: %v", err)
		}
		if dst.Len() != src.Len() || dst.Real() != src.Real() {
			t.Fatalf("round trip len/real (%d,%d) want (%d,%d)", dst.Len(), dst.Real(), src.Len(), src.Real())
		}
		for i := 0; i < src.Len(); i++ {
			if dst.IsReal(i) != src.IsReal(i) {
				t.Fatalf("slot %d flag diverged", i)
			}
			for j := 0; j < ar; j++ {
				if dst.At(i, j) != src.At(i, j) {
					t.Fatalf("slot %d attr %d diverged", i, j)
				}
			}
		}
	})
}

// fuzzBuffer builds a deterministic buffer for seed corpus entries.
func fuzzBuffer(arity, n int) *oblivious.Buffer {
	b := oblivious.NewBuffer(arity, n)
	row := make(table.Row, arity)
	for i := 0; i < n; i++ {
		for j := range row {
			row[j] = int64(i + j*7)
		}
		if i%2 == 0 {
			b.AppendRow(row)
		} else {
			b.AppendDummies(1)
		}
	}
	return b
}

// TestSeedCorpusDecodes keeps the checked-in seed corpus honest across format
// bumps: the seeds named as valid encodings must still decode cleanly under
// the current section codecs — a seed that only reaches the error path stops
// guiding the fuzzer — so a version that changes the buffer or runtime
// section has to regenerate them. (v7, v8 and v9 changed the runtime section
// — the protocol-internal draw position, the meter's call counts, then the
// clock left it — and seed_runtime with it; the engine and DB streams' fuzz
// seeds are live snapshots taken by core.FuzzDecodeFrameworkState and the
// root FuzzRestore themselves.)
func TestSeedCorpusDecodes(t *testing.T) {
	seed := func(target, name string) []byte {
		raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", target, name))
		if err != nil {
			t.Fatal(err)
		}
		_, lit, ok := strings.Cut(strings.TrimSpace(string(raw)), "\n[]byte(")
		if !ok {
			t.Fatalf("%s/%s is not a one-argument []byte seed", target, name)
		}
		s, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
		if err != nil {
			t.Fatalf("%s/%s: %v", target, name, err)
		}
		return []byte(s)
	}
	for _, name := range []string{"seed_empty_buffer", "seed_small_buffer"} {
		dec := snapshot.NewDecoder(bytes.NewReader(seed("FuzzDecodeBuffer", name)))
		oblivious.NewBuffer(2, 0).DecodeState(dec)
		if err := dec.Err(); err != nil || dec.Finish() != nil {
			t.Errorf("%s no longer decodes: %v / %v", name, err, dec.Finish())
		}
	}
	dec := snapshot.NewDecoder(bytes.NewReader(seed("FuzzDecodeRuntime", "seed_runtime")))
	mpc.NewRuntime(mpc.DefaultCostModel(), 9).DecodeState(dec)
	if err := dec.Err(); err != nil || dec.Finish() != nil {
		t.Errorf("seed_runtime no longer decodes: %v / %v", err, dec.Finish())
	}
}
