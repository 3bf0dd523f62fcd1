// Package securearray is the oblivtaint fixture: it sits on the default
// policed path list and reads secrets through the hermetic stubs. Each
// positive hits one sink shape; the negatives are the legal
// public-control/secret-data patterns the analyzer must not flag.
package securearray

import (
	"incshrink/internal/gmw"
	"incshrink/internal/oblivious"
	"incshrink/internal/secretshare"
	"incshrink/internal/table"
)

func branchOnFlag(b *oblivious.Buffer, i int) int {
	if b.IsReal(i) { // want `secret-tainted value \(from oblivious\.Buffer\.IsReal\) controls a branch condition`
		return 1
	}
	return 0
}

func loopOnRecovered(s secretshare.Shares2) int {
	n := 0
	for secretshare.Recover(s) > uint32(n) { // want `secret-tainted value \(from secretshare\.Recover\) controls a loop condition`
		n++
	}
	return n
}

func switchOnCell(t *table.Flat) int {
	switch t.At(0, 0) { // want `secret-tainted value \(from table\.Flat\.At\) controls a switch tag`
	case 0:
		return 0
	}
	return 1
}

func caseOnOpen(b gmw.Bit) int {
	switch {
	case b.Open(): // want `secret-tainted value \(from gmw\.Bit\.Open\) controls a switch case`
		return 1
	}
	return 0
}

func indexThroughLocals(b *oblivious.Buffer, xs []int64) int64 {
	v := b.At(0, 1)
	w := v * 3   // taint survives arithmetic and reassignment
	return xs[w] // want `secret-tainted value \(from oblivious\.Buffer\.At\) selects a memory address`
}

func allocFromSecretLen(b *oblivious.Buffer) []int64 {
	var reals []int64
	for i := 0; i < b.Len(); i++ {
		if b.IsReal(i) { // want `controls a branch condition`
			reals = append(reals, b.At(i, 0))
		}
	}
	return make([]int64, len(reals)) // want `determines an allocation size`
}

func fanOut(b *oblivious.Buffer, emit func(...int64)) {
	row := b.Row(0)
	emit(row...) // want `fans out a variadic call's argument count`
}

func recordField(r oblivious.Record) int {
	if r.Row[0] > 0 { // want `secret-tainted value \(from oblivious\.Record\.Row\) controls a branch condition`
		return 1
	}
	return int(r.ID) // the ID is public
}

// View mirrors the column-major materialized view: its columns and its flag
// bitset are secret stores in this package, registered beside Buffer's.
type View struct {
	flag []uint64
	n    int
	cols [][]int64
}

func branchOnViewFlag(v *View) (n int) {
	for i := 0; i < len(v.flag); i++ { // the column's length is public
		if v.flag[i]&1 == 1 { // want `secret-tainted value \(from securearray\.View\.flag\) controls a branch condition`
			n++
		}
	}
	return n
}

func indexByViewCell(v *View, xs []int64) int64 {
	return xs[v.cols[0][0]] // want `secret-tainted value \(from securearray\.View\.cols\) selects a memory address`
}

// branchingKernel is registered in OblivTaintColumnParams by the unit test:
// its flag parameter starts tainted, with a public length.
func branchingKernel(flag []uint8, public []uint8) (n int) {
	for i := 0; i < len(flag); i++ {
		if flag[i] == 1 { // want `secret-tainted value \(from internal/securearray\.branchingKernel\.flag\) controls a branch condition`
			n++
		}
		if public[i] == 1 { // an unregistered parameter is public
			n++
		}
		n += int(flag[i]) // the legal shape: the flag is data
	}
	return n
}

// bulkColumnCopy spreads a reslice with public bounds: exactly hi-lo
// elements, whatever they hold. Spreading the whole secret slice is still a
// finding (fanOut above).
func bulkColumnCopy(b *oblivious.Buffer, dst []bool, lo, hi int) []bool {
	return append(dst, b.Flags()[lo:hi]...)
}

func secretBoundCopy(b *oblivious.Buffer, dst []bool) []bool {
	return append(dst, b.Flags()[:b.Real()]...) // want `fans out a variadic call's argument count`
}

// publicControl is the legal shape: public loop bounds and indexes,
// secret values flowing only through data positions.
func publicControl(b *oblivious.Buffer, out []int64) {
	for i := 0; i < b.Len(); i++ {
		out[i] = b.At(i, 0)
	}
}

// secretThroughCalls is legal too: handing secrets to callees is data
// flow, not control flow (the callee is analyzed in its own package).
func secretThroughCalls(b *oblivious.Buffer, sink func(int64)) {
	sink(b.At(0, 0))
}

// dpReleasedCount models the sites the escape hatch exists for: the
// compared value was DP-noised upstream, so the branch is public.
func dpReleasedCount(b *oblivious.Buffer) int {
	n := b.Real()
	if n > 10 { //lint:allow oblivtaint fixture: count is DP-released upstream of this check
		return 10
	}
	return n
}

// sanctionedCompareExchange is appended to OblivTaintSanctioned by the
// unit test: despite the secret-dependent branch, a sanctioned
// constant-time primitive reports nothing.
func sanctionedCompareExchange(b *oblivious.Buffer, i, j int) {
	if b.IsReal(i) {
		_ = b.At(j, 0)
	}
}
