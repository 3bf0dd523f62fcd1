// Package gmw is a hermetic analysistest stub of incshrink/internal/gmw:
// Bit.Open reconstructs a shared bit, which oblivtaint treats as a secret
// source at the call site.
package gmw

type Bit struct{ S0, S1 bool }

func (b Bit) Open() bool { return b.S0 != b.S1 }
