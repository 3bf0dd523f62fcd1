package wire

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// FuzzFrameDecoder feeds arbitrary bytes to the frame decoder. The contract
// under hostile input mirrors the snapshot codec's: typed error or clean
// success — never a panic, never an allocation driven by a declared length
// beyond the bound — and every successfully decoded frame must re-encode to
// exactly the bytes it was parsed from. Seed corpus lives in
// testdata/fuzz/FuzzFrameDecoder (valid frames plus framing edge cases).
func FuzzFrameDecoder(f *testing.F) {
	f.Add(AppendFrame(nil, 1, []byte("hello")))
	two := AppendFrame(nil, 0, nil)
	f.Add(AppendFrame(two, 0xFF, bytes.Repeat([]byte{7}, 40)))
	f.Add([]byte{})
	f.Add([]byte{9})                         // bare type byte
	f.Add([]byte{1, 0xff, 0xff, 0xff, 0xff}) // hostile length
	f.Add([]byte{2, 5, 0, 0, 0, 'a', 'b'})   // truncated payload
	// A gmw FrameOpen (type 0x11) carrying a 12-lane round: 48 opening bits.
	f.Add(AppendFrame(nil, 0x11, []byte{0xEF, 0xBE, 0xAD, 0xDE, 0xCD, 0xAB}))
	f.Fuzz(func(t *testing.T, data []byte) {
		fr := NewFrameReader(bytes.NewReader(data), 1<<16)
		off := 0
		for {
			typ, payload, err := fr.Read()
			if err != nil {
				if err == io.EOF && off != len(data) {
					t.Fatalf("clean EOF with %d bytes unconsumed", len(data)-off)
				}
				if err != io.EOF && !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrFrameTooLarge) {
					t.Fatalf("untyped decode error: %v", err)
				}
				return
			}
			consumed := FrameOverhead + len(payload)
			if off+consumed > len(data) {
				t.Fatalf("decoded frame of %d bytes past end of input", consumed)
			}
			if got := AppendFrame(nil, typ, payload); !bytes.Equal(got, data[off:off+consumed]) {
				t.Fatalf("re-encoded frame %x != consumed bytes %x", got, data[off:off+consumed])
			}
			off += consumed
		}
	})
}
