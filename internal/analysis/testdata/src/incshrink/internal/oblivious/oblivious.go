// Package oblivious is a hermetic analysistest stub of
// incshrink/internal/oblivious: the secret accessors the oblivtaint
// fixtures read.
package oblivious

type Buffer struct {
	n int
}

// Record is the by-value join input: the row is secret content, the ID a
// public label the engine never reads.
type Record struct {
	ID  int64
	Row []int64
}

func (b *Buffer) Len() int { return b.n }

// Secret accessors (oblivtaint sources).
func (b *Buffer) IsReal(i int) bool { return false }
func (b *Buffer) At(i, j int) int64 { return 0 }
func (b *Buffer) Row(i int) []int64 { return nil }
func (b *Buffer) Real() int         { return 0 }
func (b *Buffer) Flags() []bool     { return nil }
