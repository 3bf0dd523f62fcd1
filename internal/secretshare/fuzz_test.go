package secretshare

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzShareBytes checks arbitrary payloads survive the share/recover cycle:
// the bytes are packed into ring words (zero-padded), shared and recovered as
// a vector, and unpacked again.
func FuzzShareBytes(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5})
	rng := NewRand(1)
	f.Fuzz(func(t *testing.T, payload []byte) {
		padded := append(bytes.Clone(payload), 0, 0, 0)
		words := make([]Word, (len(payload)+3)/4)
		for i := range words {
			words[i] = binary.LittleEndian.Uint32(padded[4*i:])
		}
		got, err := RecoverVector(ShareVector(words, rng))
		if err != nil {
			t.Fatal(err)
		}
		out := make([]byte, 0, 4*len(got))
		for _, w := range got {
			out = binary.LittleEndian.AppendUint32(out, w)
		}
		if !bytes.Equal(out[:len(payload)], payload) {
			t.Fatalf("round-trip changed payload")
		}
	})
}
