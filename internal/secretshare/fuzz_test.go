package secretshare

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzShareBytes checks arbitrary payloads survive the share/recover cycle:
// the bytes are packed into ring words (zero-padded), each word is shared and
// recovered, and the words are unpacked again.
func FuzzShareBytes(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5})
	rng := newRand(1)
	f.Fuzz(func(t *testing.T, payload []byte) {
		padded := append(bytes.Clone(payload), 0, 0, 0)
		words := make([]Word, (len(payload)+3)/4)
		for i := range words {
			words[i] = binary.LittleEndian.Uint32(padded[4*i:])
		}
		out := make([]byte, 0, 4*len(words))
		for _, w := range words {
			out = binary.LittleEndian.AppendUint32(out, Recover(Share(w, rng)))
		}
		if !bytes.Equal(out[:len(payload)], payload) {
			t.Fatalf("round-trip changed payload")
		}
	})
}
