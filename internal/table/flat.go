package table

import (
	"fmt"
	"slices"
)

// Flat is a row-major arena of fixed-arity rows: one contiguous []int64
// holding n*arity attributes. It is the columnar data plane's payload
// layout — a single allocation instead of one heap-allocated Row per tuple —
// shared by the secure layer (internal/oblivious.Buffer embeds a Flat as its
// payload arena) and usable directly for plaintext batch processing.
//
// The zero value is an empty arena of arity 0; use NewFlat to fix the arity.
// Row views returned by Row remain valid until the next growing append
// (AppendRow and friends may reallocate the arena, like append on a slice).
type Flat struct {
	arity int
	n     int
	data  []int64
}

// NewFlat creates an empty arena for rows of the given arity, with capacity
// for rowCap rows pre-reserved.
func NewFlat(arity, rowCap int) *Flat {
	if arity < 0 {
		panic(fmt.Sprintf("table: negative arity %d", arity))
	}
	return &Flat{arity: arity, data: make([]int64, 0, arity*rowCap)}
}

// Arity returns the fixed number of attributes per row.
func (f *Flat) Arity() int { return f.arity }

// Rows returns the number of rows currently stored.
func (f *Flat) Rows() int { return f.n }

// Row returns row i as a capped slice of the arena (no copy). The view is
// read-write but must not be appended to, and is invalidated by growing
// appends.
func (f *Flat) Row(i int) Row {
	lo := i * f.arity
	return f.data[lo : lo+f.arity : lo+f.arity]
}

// At returns attribute j of row i.
func (f *Flat) At(i, j int) int64 { return f.data[i*f.arity+j] }

// AppendRow appends a copy of r, which must have exactly the arena's arity.
func (f *Flat) AppendRow(r Row) {
	if len(r) != f.arity {
		panic(fmt.Sprintf("table: appending arity-%d row to arity-%d arena", len(r), f.arity))
	}
	f.data = append(f.data, r...)
	f.n++
}

// AppendZeroRows appends n all-zero rows (dummy payloads) with one
// reservation and one zeroing. n <= 0 appends nothing.
func (f *Flat) AppendZeroRows(n int) {
	if n <= 0 {
		return
	}
	lo := len(f.data)
	f.data = slices.Grow(f.data, n*f.arity)[:lo+n*f.arity]
	clear(f.data[lo:])
	f.n += n
}

// AppendFrom appends a copy of row i of src, which must have equal arity.
func (f *Flat) AppendFrom(src *Flat, i int) {
	if src.arity != f.arity {
		panic(fmt.Sprintf("table: appending from arity-%d arena to arity-%d arena", src.arity, f.arity))
	}
	lo := i * src.arity
	f.data = append(f.data, src.data[lo:lo+src.arity]...)
	f.n++
}

// AppendRows appends copies of src's rows [lo, hi) with one bulk copy; src
// must have equal arity.
func (f *Flat) AppendRows(src *Flat, lo, hi int) {
	if src.arity != f.arity {
		panic(fmt.Sprintf("table: appending from arity-%d arena to arity-%d arena", src.arity, f.arity))
	}
	f.data = append(f.data, src.data[lo*src.arity:hi*src.arity]...)
	f.n += hi - lo
}

// Grow reserves capacity for at least extra more rows without changing the
// content, so subsequent appends do not reallocate (and previously returned
// Row views stay valid across them).
func (f *Flat) Grow(extra int) {
	need := len(f.data) + extra*f.arity
	if cap(f.data) < need {
		grown := make([]int64, len(f.data), need)
		copy(grown, f.data)
		f.data = grown
	}
}

// Truncate drops every row from index rows on.
func (f *Flat) Truncate(rows int) {
	f.data = f.data[:rows*f.arity]
	f.n = rows
}

// CutPrefix removes the first rows rows, sliding the remainder to the front
// of the arena in place (no allocation).
func (f *Flat) CutPrefix(rows int) {
	if rows <= 0 {
		return
	}
	copy(f.data, f.data[rows*f.arity:])
	f.Truncate(f.n - rows)
}

// Reset empties the arena, keeping its storage for reuse.
func (f *Flat) Reset() {
	f.data = f.data[:0]
	f.n = 0
}

// Data exposes the backing arena (n*arity attributes, row-major) for bulk
// access — a snapshot section writes it with one copy, and a decoder fills
// rows it appended. Callers must not retain it across growing appends.
func (f *Flat) Data() []int64 { return f.data }
