package gmw

import (
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"incshrink/internal/mpc"
	"incshrink/internal/wire"
)

// pairRun is the outcome of one two-party evaluation: the outputs both
// parties opened (checked identical) and each party's evaluator and conn.
type pairRun struct {
	out    []uint32
	e0, e1 *Eval
	c0, c1 wire.Conn
}

// evalPair runs program once per role over the given connected pair, role 1
// on its own goroutine (joined before returning). Role 0 deals the tuples
// from NewDealer(seed). It does not judge the evaluators' errors.
func evalPair(t testing.TB, c0, c1 wire.Conn, seed int64, tuples, recordLimit int, program func(e *Eval) []uint32) *pairRun {
	t.Helper()
	r := &pairRun{e0: NewEval(0, c0, recordLimit), e1: NewEval(1, c1, recordLimit), c0: c0, c1: c1}
	var out1 []uint32
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := r.e1.RecvTriples(); err != nil {
			t.Errorf("role 1 tuples: %v", err)
			return
		}
		out1 = program(r.e1)
	}()
	if err := r.e0.DealTriples(NewDealer(seed), tuples); err != nil {
		t.Errorf("role 0 tuples: %v", err)
	}
	r.out = program(r.e0)
	wg.Wait()
	if len(r.out) != len(out1) {
		t.Fatalf("parties opened %d and %d outputs", len(r.out), len(out1))
	}
	for i := range r.out {
		if r.out[i] != out1[i] {
			t.Fatalf("output %d: role 0 opened %d, role 1 opened %d", i, r.out[i], out1[i])
		}
	}
	return r
}

// runPair is evalPair over a fresh buffered loopback, requiring a clean run.
func runPair(t testing.TB, seed int64, tuples int, program func(e *Eval) []uint32) *pairRun {
	t.Helper()
	c0, c1 := wire.Loopback(256)
	defer c0.Close()
	defer c1.Close()
	r := evalPair(t, c0, c1, seed, tuples, 0, program)
	if r.e0.Err() != nil || r.e1.Err() != nil {
		t.Fatalf("evaluation errors: role0=%v role1=%v", r.e0.Err(), r.e1.Err())
	}
	return r
}

// opener collects a program's opened outputs.
type opener struct {
	e    *Eval
	outs []uint32
}

func (o *opener) word(w WordShare) {
	if v, err := o.e.OpenWord(w); err == nil {
		o.outs = append(o.outs, v)
	}
}

func (o *opener) bit(b BitShare) { o.word(WordOfBit(b)) }

// bitShare splits a cleartext bit against a mask bit the way ShareOfWord
// splits words: role 0 holds the mask, role 1 holds v^mask.
func bitShare(role int, v, mask uint32) BitShare {
	if role == 1 {
		mask ^= v
	}
	return BitShare(mask & 1)
}

// wordCircuit evaluates one two-input word circuit between a fresh pair and
// returns the opened result; tuples is the circuit's exact budget.
func wordCircuit(t testing.TB, tuples int, x, y uint32, circuit func(e *Eval, wx, wy WordShare) WordShare) uint32 {
	t.Helper()
	r := runPair(t, int64(x)<<32|int64(y), tuples, func(e *Eval) []uint32 {
		o := &opener{e: e}
		o.word(circuit(e, ShareOfWord(e.Role(), x, 0xDEADBEEF), ShareOfWord(e.Role(), y, 0x1234ABCD)))
		return o.outs
	})
	if r.e0.TriplesLeft() != 0 || r.e1.TriplesLeft() != 0 {
		t.Fatalf("tuples left: role0=%d role1=%d of %d", r.e0.TriplesLeft(), r.e1.TriplesLeft(), tuples)
	}
	return r.out[0]
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

func TestBitOpen(t *testing.T) {
	for _, v := range []bool{true, false} {
		for _, mask := range []bool{true, false} {
			if (Bit{S0: mask, S1: v != mask}).Open() != v {
				t.Fatalf("Bit{%v, %v ^ %v} round-trip failed", mask, v, mask)
			}
		}
	}
}

// TestDealerTuples: every dealt tuple satisfies all fifteen correlations —
// a, b, c and d free, bit s-1 the product over subset s of them — and over
// many draws a, b, c, d and every share bit are uniform.
func TestDealerTuples(t *testing.T) {
	const draws = 4000
	d := NewDealer(2)
	var ones [2][15]int // [party][bit] share ones
	var free [4]int     // a, b, c, d cleartext ones
	for i := 0; i < draws; i++ {
		tu := d.Tuple()
		var vals [4]bool
		for j := range vals {
			vals[j] = tu.bit(1 << j).Open()
			free[j] += int(b2u(vals[j]))
		}
		for s := uint(1); s < 16; s++ {
			want := true
			for j, v := range vals {
				if s>>j&1 == 1 {
					want = want && v
				}
			}
			if tu.bit(s).Open() != want {
				t.Fatalf("tuple %d: subset %04b opens to %v, want %v", i, s, tu.bit(s).Open(), want)
			}
		}
		if (tu.S0|tu.S1)>>15 != 0 {
			t.Fatalf("tuple %d: halves %016b/%016b use bit 15", i, tu.S0, tu.S1)
		}
		for j := range 15 {
			ones[0][j] += int(tu.S0 >> uint(j) & 1)
			ones[1][j] += int(tu.S1 >> uint(j) & 1)
		}
	}
	for j, n := range free {
		if f := float64(n) / draws; math.Abs(f-0.5) > 0.05 {
			t.Errorf("cleartext bit %d is 1 in %.3f of tuples, want 0.5", j, f)
		}
	}
	for party := range ones {
		for j, n := range ones[party] {
			if f := float64(n) / draws; math.Abs(f-0.5) > 0.05 {
				t.Errorf("party %d share bit %d is 1 in %.3f of tuples, want 0.5", party, j, f)
			}
		}
	}
}

// poolAt reads pool position i of e back out of the bit-sliced pool, in the
// FrameTriples layout.
func poolAt(e *Eval, i int) (h uint16) {
	for s, v := range e.pool[i/64] {
		h |= uint16(v>>uint(i%64)&1) << s
	}
	return h
}

// TestEitherRoleDeals: whichever role deals, the two pools hold matching
// halves of valid tuples.
func TestEitherRoleDeals(t *testing.T) {
	for dealer := 0; dealer < 2; dealer++ {
		c0, c1 := wire.Loopback(4)
		evs := [2]*Eval{NewEval(0, c0, 0), NewEval(1, c1, 0)}
		if err := evs[dealer].DealTriples(NewDealer(8), 100); err != nil {
			t.Fatal(err)
		}
		if err := evs[1-dealer].RecvTriples(); err != nil {
			t.Fatal(err)
		}
		twin := NewDealer(8)
		for i := 0; i < 100; i++ {
			tu := twin.Tuple()
			if p0, p1 := poolAt(evs[0], i), poolAt(evs[1], i); p0 != tu.S0 || p1 != tu.S1 {
				t.Fatalf("role %d dealing: tuple %d pools hold %015b/%015b, want %015b/%015b", dealer, i, p0, p1, tu.S0, tu.S1)
			}
		}
		c0.Close()
	}
}

// TestBitrev pins the WordShare permutation — once a bit reversal, now the
// radix-4 layout — to its table, and toLayout and fromLayout to being
// inverse bijections that keep every bit.
func TestBitrev(t *testing.T) {
	want := [32]uint8{31, 10, 26, 16, 5, 23, 13, 2, 28, 18, 7, 30, 20, 9, 25, 15, 4, 22, 12, 1, 27, 17, 6, 29, 19, 8, 24, 14, 3, 21, 11, 0}
	if layout != want {
		t.Errorf("layout = %v, want %v", layout, want)
	}
	for i := 0; i < 32; i++ {
		if got := toLayout(1 << uint(i)); got != 1<<layout[i] {
			t.Errorf("toLayout(1<<%d) = %#x, want bit %d", i, got, layout[i])
		}
	}
	f := func(v uint32) bool {
		return fromLayout(toLayout(v)) == v && toLayout(fromLayout(v)) == v && bits.OnesCount32(toLayout(v)) == bits.OnesCount32(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestSegments checks that the layout puts each block where the fold's first
// round reads it: the block at element position e keeps its top bit at e
// (fieldT), its middle bit at 11+e (fieldM) and its bottom bit at 21+e
// (fieldB), and the three fields tile the word.
func TestSegments(t *testing.T) {
	if fieldT&fieldM != 0 || fieldT&fieldB != 0 || fieldM&fieldB != 0 || fieldT|fieldM|fieldB != word {
		t.Fatalf("fields %#x, %#x, %#x do not tile the word", fieldT, fieldM, fieldB)
	}
	for e, b := range elements {
		top, bottom := 3*b+1, 3*b-1
		if b == 0 {
			top, bottom = 1, 0
		} else if got := toLayout(1 << (3 * b)); got != 1<<(11+e) || got&fieldM == 0 {
			t.Errorf("block %d middle bit lands at %#x, want bit %d", b, got, 11+e)
		}
		if got := toLayout(1 << top); got != 1<<e || got&fieldT == 0 {
			t.Errorf("block %d top bit lands at %#x, want bit %d", b, got, e)
		}
		if got := toLayout(1 << bottom); got != 1<<(21+e) || got&fieldB == 0 {
			t.Errorf("block %d bottom bit lands at %#x, want bit %d", b, got, 21+e)
		}
	}
}

func TestXORGate(t *testing.T) {
	r := runPair(t, 2, 0, func(e *Eval) []uint32 {
		o := &opener{e: e}
		for x := uint32(0); x < 2; x++ {
			for y := uint32(0); y < 2; y++ {
				o.bit(e.XOR(bitShare(e.Role(), x, 1), bitShare(e.Role(), y, 0)))
			}
		}
		return o.outs
	})
	for i, want := range []uint32{0, 1, 1, 0} {
		if r.out[i] != want {
			t.Errorf("XOR(%d,%d) = %d", i>>1, i&1, r.out[i])
		}
	}
	if r.e0.ANDGates != 0 {
		t.Error("XOR consumed AND gates")
	}
}

func TestANDGateTruthTable(t *testing.T) {
	const trials = 20 // fresh tuples and masks each time
	r := runPair(t, 3, 4*trials, func(e *Eval) []uint32 {
		o := &opener{e: e}
		for i := uint32(0); i < 4*trials; i++ {
			x, y := i&1, i>>1&1
			o.bit(e.AND(bitShare(e.Role(), x, i>>2), bitShare(e.Role(), y, i>>3)))
		}
		return o.outs
	})
	for i, got := range r.out {
		if x, y := uint32(i)&1, uint32(i)>>1&1; got != x&y {
			t.Fatalf("AND(%d,%d) = %d", x, y, got)
		}
	}
}

// TestAND4TruthTable: the four-input gate on all 16 inputs, each trial
// under fresh tuples and fresh input masks.
func TestAND4TruthTable(t *testing.T) {
	const trials = 12
	r := runPair(t, 31, 16*trials, func(e *Eval) []uint32 {
		o := &opener{e: e}
		for i := uint32(0); i < 16*trials; i++ {
			m := i >> 4 * 0x9E3779B9
			var in [4]uint64
			for j := range in {
				in[j] = uint64(bitShare(e.Role(), i>>uint(j)&1, m>>uint(7+6*j)))
			}
			o.bit(BitShare(e.and(vec{in[0]}, vec{in[1]}, vec{in[2]}, vec{in[3]}, 1)[0]))
		}
		return o.outs
	})
	for i, got := range r.out {
		if v := uint32(i) & 15; got != b2u(v == 15) {
			t.Fatalf("trial %d: AND(%04b) = %d", i/16, v, got)
		}
	}
}

// TestMixedGateRound: one 96-lane round, two words, whose lanes cycle
// through two-input gates (z and w the public constant 1), three-input
// gates (w the public 1) and four-input gates, each kind over all 16
// combinations of its lane's input bits twice.
func TestMixedGateRound(t *testing.T) {
	const k = 96 // lane i: fan-in 2 + i%3, inputs (x, y, z, w) = bits 0..3 of i/3
	r := runPair(t, 32, k, func(e *Eval) []uint32 {
		var in [4]vec
		for i := uint32(0); i < k; i++ {
			for j := range in {
				v := uint64(bitShare(e.Role(), i/3>>uint(j)&1, i*(5+uint32(j))+uint32(j)))
				if j >= 2+int(i%3) {
					v = e.ones[0] & 1
				}
				in[j][i/64] |= v << (i % 64)
			}
		}
		z := e.and(in[0], in[1], in[2], in[3], k)
		o := &opener{e: e}
		for _, w := range []uint64{z[0], z[0] >> 32, z[1]} {
			o.word(WordShare(w))
		}
		return o.outs
	})
	for i := uint32(0); i < k; i++ {
		got := toLayout(r.out[i/32]) >> (i % 32) & 1 // undo OpenWord's relabelling: lane i is bit i
		fanIn := 2 + i%3
		want := b2u(i/3&(1<<fanIn-1) == 1<<fanIn-1)
		if got != want {
			t.Errorf("lane %d (%d-input, inputs %04b): got %d, want %d", i, fanIn, i/3&15, got, want)
		}
	}
}

func TestNotOrMux(t *testing.T) {
	r := runPair(t, 4, 4+8, func(e *Eval) []uint32 {
		o := &opener{e: e}
		role := e.Role()
		o.bit(e.NOT(bitShare(role, 1, 1)))
		o.bit(e.NOT(bitShare(role, 0, 1)))
		for i := uint32(0); i < 4; i++ {
			o.bit(e.OR(bitShare(role, i&1, 1), bitShare(role, i>>1, 0)))
		}
		for i := uint32(0); i < 8; i++ {
			o.bit(e.MUX(bitShare(role, i>>2, 1), bitShare(role, i&1, 0), bitShare(role, i>>1&1, 1)))
		}
		return o.outs
	})
	if r.out[0] != 0 || r.out[1] != 1 {
		t.Error("NOT wrong")
	}
	for i := uint32(0); i < 4; i++ {
		if got := r.out[2+i]; got != (i&1)|(i>>1) {
			t.Errorf("OR(%d,%d) = %d", i&1, i>>1, got)
		}
	}
	for i := uint32(0); i < 8; i++ {
		sel, x, y := i>>2, i&1, i>>1&1
		want := x
		if sel == 1 {
			want = y
		}
		if got := r.out[6+i]; got != want {
			t.Errorf("MUX(%d,%d,%d) = %d", sel, x, y, got)
		}
	}
}

func TestWordRoundTrip(t *testing.T) {
	f := func(v, mask uint32) bool {
		if fromLayout(uint32(ShareOfWord(0, v, mask)^ShareOfWord(1, v, mask))) != v {
			return false
		}
		return wordCircuit(t, 0, v, mask, func(_ *Eval, wx, _ WordShare) WordShare { return wx }) == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestAdder(t *testing.T) {
	f := func(x, y uint32) bool {
		return wordCircuit(t, AddShape.ANDs(), x, y, (*Eval).Add) == x+y
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestAdderANDCost(t *testing.T) {
	r := runPair(t, 7, 32, func(e *Eval) []uint32 {
		e.Add(ShareOfWord(e.Role(), 1, 5), ShareOfWord(e.Role(), 2, 6))
		return nil
	})
	if r.e0.ANDGates != 32 {
		t.Errorf("32-bit adder used %d AND gates, want 32", r.e0.ANDGates)
	}
}

// lessThan evaluates LessThan between a fresh pair.
func lessThan(t testing.TB, x, y uint32) bool {
	return wordCircuit(t, LessThanShape.ANDs(), x, y, func(e *Eval, wx, wy WordShare) WordShare {
		return WordOfBit(e.LessThan(wx, wy))
	}) == 1
}

func TestLessThan(t *testing.T) {
	f := func(x, y uint32) bool {
		return lessThan(t, x, y) == (x < y) && !lessThan(t, x, x)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
	// Edge cases, every single-bit difference in both directions, and the
	// fold's boundary pairs.
	pairs := [][2]uint32{{0, 0}, {0, 1}, {1, 0}, {^uint32(0), ^uint32(0)}, {^uint32(0) - 1, ^uint32(0)}}
	for i := uint(0); i < 32; i++ {
		pairs = append(pairs, [2]uint32{0xA5A5A5A5 &^ (1 << i), 0xA5A5A5A5 | 1<<i}, [2]uint32{0xA5A5A5A5 | 1<<i, 0xA5A5A5A5 &^ (1 << i)})
	}
	for _, pair := range append(pairs, foldBoundaryPairs()...) {
		if got := lessThan(t, pair[0], pair[1]); got != (pair[0] < pair[1]) {
			t.Errorf("LessThan(%#x,%#x) = %v", pair[0], pair[1], got)
		}
	}
}

func TestEqual(t *testing.T) {
	equal := func(x, y uint32) bool {
		return wordCircuit(t, EqualShape.ANDs(), x, y, func(e *Eval, wx, wy WordShare) WordShare {
			return WordOfBit(e.Equal(wx, wy))
		}) == 1
	}
	f := func(x, y uint32) bool {
		return equal(x, y) == (x == y) && equal(x, x)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
	for i := uint(0); i < 32; i++ {
		if equal(42, 42^1<<i) {
			t.Errorf("Equal true on words differing in bit %d", i)
		}
	}
}

func TestXORWords(t *testing.T) {
	f := func(x, y uint32) bool {
		return wordCircuit(t, 0, x, y, (*Eval).XORWords) == x^y
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// foldBoundaries are the bit positions where the comparator's fold joins
// two blocks: blocks start at bits 2, 5, …, 29, and the runs of blocks the
// second round folds (L, M and H) at bits 8 and 20.
var foldBoundaries = []uint{2, 5, 8, 11, 14, 17, 20, 23, 26, 29}

// foldBoundaryPairs lists input pairs that stress the fold's joins: words
// differing in the single bit on either side of each boundary, in both
// directions and over several backgrounds; ties; and x = y ± 1 where the
// increment carries across a boundary.
func foldBoundaryPairs() [][2]uint32 {
	var pairs [][2]uint32
	for _, w := range []uint32{0, math.MaxUint32, 0xA5A5A5A5, 0x5A5A5A5A, 0x0000FFFF, 0xFFFF0000} {
		pairs = append(pairs, [2]uint32{w, w})
		for _, b := range foldBoundaries {
			for _, i := range []uint{b - 1, b} {
				lo, hi := w&^(1<<i), w|1<<i
				pairs = append(pairs, [2]uint32{lo, hi}, [2]uint32{hi, lo})
			}
		}
	}
	for _, b := range append([]uint{0, 1, 30}, foldBoundaries...) {
		below := uint32(1)<<b - 1 // +1 carries into bit b
		for _, w := range []uint32{below, below | 0xA0000000&^(1<<b)} {
			pairs = append(pairs, [2]uint32{w, w + 1}, [2]uint32{w + 1, w})
		}
	}
	return append(pairs, [2]uint32{math.MaxUint32 - 1, math.MaxUint32}, [2]uint32{math.MaxUint32, 0})
}

// compareExchanges evaluates CompareExchange on every pair between one
// fresh two-party evaluation and returns the opened (lo, hi) of each.
func compareExchanges(t *testing.T, seed int64, pairs [][2]uint32) [][2]uint32 {
	t.Helper()
	r := runPair(t, seed, len(pairs)*CompareExchangeShape.ANDs(), func(e *Eval) []uint32 {
		o := &opener{e: e}
		for i, pair := range pairs {
			lo, hi := e.CompareExchange(ShareOfWord(e.Role(), pair[0], uint32(i)*0x9E3779B9), ShareOfWord(e.Role(), pair[1], ^uint32(i)))
			o.word(lo)
			o.word(hi)
		}
		return o.outs
	})
	out := make([][2]uint32, len(pairs))
	for i := range out {
		out[i] = [2]uint32{r.out[2*i], r.out[2*i+1]}
	}
	return out
}

// TestCompareExchangeFoldBoundaries holds the comparator to min/max on the
// fold's boundary pairs, ties and ±1 neighbours.
func TestCompareExchangeFoldBoundaries(t *testing.T) {
	pairs := foldBoundaryPairs()
	for i, got := range compareExchanges(t, 21, pairs) {
		x, y := pairs[i][0], pairs[i][1]
		if got != [2]uint32{min(x, y), max(x, y)} {
			t.Errorf("CompareExchange(%#x, %#x) = (%#x, %#x)", x, y, got[0], got[1])
		}
	}
}

// TestCompareExchangeQuick is a testing/quick differential of the
// comparator against min and max.
func TestCompareExchangeQuick(t *testing.T) {
	f := func(x, y uint32, seed int64) bool {
		got := compareExchanges(t, seed, [][2]uint32{{x, y}, {y, x}, {x, x}})
		return got[0] == [2]uint32{min(x, y), max(x, y)} && got[1] == got[0] && got[2] == [2]uint32{x, x}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestCompareExchangeFitsBenchmarkDeal: cmd/benchmark deals a fixed
// cexANDs = 160 tuples per comparator for its GMW sort (workload_party.go
// and probe_gmw.go), so a comparator circuit needing more would exhaust the
// benchmark's pool mid-sort. The party_tls sort — Batcher's network over 64
// words, 543 comparators — deals its whole pool as one FrameTriples frame,
// which must fit the frame bound a NetConn reader enforces by default, or
// the run fails with ErrFrameTooLarge.
func TestCompareExchangeFitsBenchmarkDeal(t *testing.T) {
	const cexANDs, sortComparators = 160, 543
	if n := CompareExchangeShape.ANDs(); n > cexANDs {
		t.Errorf("CompareExchange consumes %d tuples; the benchmark deals %d per comparator", n, cexANDs)
	}
	if n := cexANDs * sortComparators * TupleBytes; n > wire.MaxFrame {
		t.Errorf("the party_tls sort deals a %d-byte tuple frame; readers accept at most %d", n, wire.MaxFrame)
	}
}

func TestMuxWordsAndCompareExchange(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const trials = 50
	var xs, ys [trials]uint32
	for i := range xs {
		xs[i], ys[i] = rng.Uint32(), rng.Uint32()
	}
	r := runPair(t, 11, trials*(CompareExchangeShape.ANDs()+2*32), func(e *Eval) []uint32 {
		o := &opener{e: e}
		for i := range xs {
			wx, wy := ShareOfWord(e.Role(), xs[i], 0xDEADBEEF), ShareOfWord(e.Role(), ys[i], 0x1234ABCD)
			lo, hi := e.CompareExchange(wx, wy)
			o.word(lo)
			o.word(hi)
			o.word(e.MUXWords(bitShare(e.Role(), 0, 1), wx, wy))
			o.word(e.MUXWords(bitShare(e.Role(), 1, 1), wx, wy))
		}
		return o.outs
	})
	for i := range xs {
		x, y := xs[i], ys[i]
		got := r.out[4*i : 4*i+4]
		if got[0] != min(x, y) || got[1] != max(x, y) {
			t.Fatalf("CompareExchange(%d,%d) = (%d,%d)", x, y, got[0], got[1])
		}
		if got[2] != x || got[3] != y {
			t.Fatalf("MUXWords(0/1,%d,%d) = %d/%d", x, y, got[2], got[3])
		}
	}
}

func TestCounterUpdateMatchesTransform(t *testing.T) {
	// Alg. 1 lines 4-6 at the gate level: counter stays shared end to end.
	deltas := []uint32{3, 0, 27, 1}
	r := runPair(t, 12, len(deltas)*AddShape.ANDs(), func(e *Eval) []uint32 {
		counter := ShareOfWord(e.Role(), 100, 0xC0FFEE01)
		for i, delta := range deltas {
			counter = e.CounterUpdate(counter, ShareOfWord(e.Role(), delta, uint32(i)*0x9E3779B9))
		}
		o := &opener{e: e}
		o.word(counter)
		return o.outs
	})
	if r.out[0] != 131 {
		t.Errorf("counter = %d, want 131", r.out[0])
	}
}

func TestThresholdCheck(t *testing.T) {
	cases := []struct {
		count, theta uint32
		want         uint32
	}{{30, 30, 1}, {29, 30, 0}, {31, 30, 1}, {0, 0, 1}}
	for _, tc := range cases {
		got := wordCircuit(t, LessThanShape.ANDs(), tc.count, tc.theta, func(e *Eval, wc, wt WordShare) WordShare {
			return WordOfBit(e.ThresholdCheck(wc, wt))
		})
		if got != tc.want {
			t.Errorf("ThresholdCheck(%d,%d) = %d want %d", tc.count, tc.theta, got, tc.want)
		}
	}
}

// TestCompareExchangeCostMatchesSimulator: the gate count of the real
// comparator circuit must stay within the constant the cost simulator
// charges (ANDGatesPerCompareExchangeBit per payload bit), keeping the two
// layers honest with each other.
func TestCompareExchangeCostMatchesSimulator(t *testing.T) {
	perBit := float64(CompareExchangeShape.ANDs()) / 32
	model := mpc.DefaultCostModel()
	if perBit < model.ANDGatesPerCompareExchangeBit || perBit > 2*model.ANDGatesPerCompareExchangeBit {
		t.Errorf("real comparator costs %.2f AND/bit; simulator charges %.2f — recalibrate",
			perBit, model.ANDGatesPerCompareExchangeBit)
	}
}

func TestCommunicationAccounting(t *testing.T) {
	r := runPair(t, 16, 1, func(e *Eval) []uint32 {
		e.AND(bitShare(e.Role(), 1, 1), bitShare(e.Role(), 0, 1))
		return nil
	})
	// Each party sends its shares of δx, δy, δz and δw and receives the
	// peer's: 8 bits across both directions.
	if got := r.e0.BitsSent + r.e1.BitsSent; got != 8*2 || r.e0.BitsSent != 8 {
		t.Errorf("one AND gate moved %d+%d bits, want 8 per party", r.e0.BitsSent, r.e1.BitsSent)
	}
	if c := r.c0.Stats(); c.BytesRecv != wire.FrameOverhead+1 {
		t.Errorf("one AND gate's opening is a %d-byte frame, want %d: four bits pad to one byte", c.BytesRecv, wire.FrameOverhead+1)
	}
	if r.e0.Stats() == "" {
		t.Error("empty stats")
	}
}

func TestRecordLimit(t *testing.T) {
	c0, c1 := wire.Loopback(256)
	defer c0.Close()
	defer c1.Close()
	// 10 single gates then a 42-lane round: the limit holds across both.
	r := evalPair(t, c0, c1, 17, 10+LessThanShape.ANDs(), 3, func(e *Eval) []uint32 {
		for i := 0; i < 10; i++ {
			e.AND(bitShare(e.Role(), 1, 1), bitShare(e.Role(), 1, 0))
		}
		e.LessThan(ShareOfWord(e.Role(), 1, 2), ShareOfWord(e.Role(), 3, 4))
		return nil
	})
	if r.e0.Err() != nil || r.e1.Err() != nil {
		t.Fatalf("evaluation errors: role0=%v role1=%v", r.e0.Err(), r.e1.Err())
	}
	if len(r.e0.Openings) != 3 || len(r.e1.Openings) != 3 {
		t.Errorf("transcripts kept %d and %d openings, want limit 3", len(r.e0.Openings), len(r.e1.Openings))
	}
}

// TestOpeningsUniform: the online transcript of the batched openings — the
// share bits each party puts in its FrameOpen payloads, and the δx, δy and
// δz both reconstruct — must be uniform regardless of the inputs, and must
// depend on the dealer's randomness only: the semi-honest security argument
// at the frame level. Every one of the 4k bit positions of each of a
// CompareExchange's three frames, the 96-lane round's lanes 64–95 included,
// is tallied over dealer seeds for four input pairs — δz and δw included,
// which for a two-input lane are openings of the public 1, masked only by c
// and d. The last pair differs only in its low byte, so the comparison is
// decided by lanes 64–95.
func TestOpeningsUniform(t *testing.T) {
	const seeds = 600
	shape := CompareExchangeShape
	// math/rand streams seeded 0, 1, 2, … are correlated draw for draw, so
	// the dealer seeds are themselves drawn from a stream.
	seedStream := rand.New(rand.NewSource(14))
	for _, in := range [][2]uint32{{0, 0}, {math.MaxUint32, math.MaxUint32}, {7, 1 << 31}, {0xC0DE0081, 0xC0DE0012}} {
		var sentOnes, openOnes [][]int // [round][bit]
		for _, k := range shape {
			sentOnes = append(sentOnes, make([]int, 4*k))
			openOnes = append(openOnes, make([]int, 4*k))
		}
		var first [][]byte
		for run := 0; run < seeds; run++ {
			seed := seedStream.Int63()
			c0, c1 := wire.Loopback(256)
			tap := &tapConn{Conn: c0}
			r := evalPair(t, tap, c1, seed, shape.ANDs(), 0, func(e *Eval) []uint32 {
				e.CompareExchange(ShareOfWord(e.Role(), in[0], 0x0F0F0F0F), ShareOfWord(e.Role(), in[1], 0x33333333))
				return nil
			})
			c0.Close()
			if r.e0.Err() != nil || r.e1.Err() != nil {
				t.Fatalf("evaluation errors: role0=%v role1=%v", r.e0.Err(), r.e1.Err())
			}
			if len(tap.opens) != len(shape) {
				t.Fatalf("run %d: %d open frames, want %d", run, len(tap.opens), len(shape))
			}
			at := 0
			for round, k := range shape {
				if len(tap.opens[round]) != (4*k+7)/8 {
					t.Fatalf("run %d round %d: %d-byte frame for %d lanes", run, round, len(tap.opens[round]), k)
				}
				for bit := 0; bit < 4*k; bit++ {
					sentOnes[round][bit] += int(tap.opens[round][bit/8] >> uint(bit%8) & 1)
					openOnes[round][bit] += int(b2u(r.e0.Openings[at+bit]))
				}
				at += 4 * k
			}
			switch run {
			case 0:
				first = tap.opens
			case 1:
				same := true
				for i := range first {
					same = same && string(first[i]) == string(tap.opens[i])
				}
				if same {
					t.Errorf("inputs %v: identical frames under two dealer seeds — the openings are not masked", in)
				}
			}
		}
		for round := range shape {
			for bit := range sentOnes[round] {
				sent, opened := float64(sentOnes[round][bit])/seeds, float64(openOnes[round][bit])/seeds
				if math.Abs(sent-0.5) > 0.1 || math.Abs(opened-0.5) > 0.1 {
					t.Errorf("inputs %v round %d bit %d: over %d dealer seeds the sent share is 1 in %.3f and the opened value in %.3f, want 0.5",
						in, round, bit, seeds, sent, opened)
				}
			}
		}
	}
}

// TestCompareExchangeAllocs: once the pool is dealt, a loopback comparator
// allocates nothing on either party — the round's tuple words, openings and
// expansion all live on the stack.
func TestCompareExchangeAllocs(t *testing.T) {
	const runs = 50
	c0, c1 := wire.Loopback(256)
	defer c0.Close()
	defer c1.Close()
	var allocs float64
	evalPair(t, c0, c1, 3, (runs+1)*CompareExchangeShape.ANDs(), 1, func(e *Eval) []uint32 {
		x, y := ShareOfWord(e.Role(), 5, 0xA5A5A5A5), ShareOfWord(e.Role(), 9, 0x5A5A5A5A)
		if e.Role() == 1 {
			for range runs + 1 { // AllocsPerRun's warm-up call, then the measured ones
				x, y = e.CompareExchange(y, x)
			}
			return nil
		}
		allocs = testing.AllocsPerRun(runs, func() { x, y = e.CompareExchange(y, x) })
		return nil
	})
	if allocs != 0 {
		t.Errorf("a loopback CompareExchange allocates %.1f times, want 0", allocs)
	}
}

// TestOpenWords: a vector reveal opens every word in one round, agrees with
// word-at-a-time OpenWord, and allocates nothing once warm.
func TestOpenWords(t *testing.T) {
	vals := []uint32{0, 1, 0xDEADBEEF, 0xFFFFFFFF, 1 << 31}
	const runs = 20
	c0, c1 := wire.Loopback(256)
	defer c0.Close()
	defer c1.Close()
	var allocs float64
	r := evalPair(t, c0, c1, 4, 0, 0, func(e *Eval) []uint32 {
		ws := make([]WordShare, len(vals))
		for i, v := range vals {
			ws[i] = ShareOfWord(e.Role(), v, 0x9E3779B9*uint32(i+1))
		}
		out := make([]uint32, len(vals))
		before := e.conn.Stats()
		if err := e.OpenWords(ws, out); err != nil {
			t.Errorf("role %d: %v", e.Role(), err)
		}
		if d := e.conn.Stats().Sub(before); d.FramesSent != 1 {
			t.Errorf("role %d: %d reveal frames sent, want 1", e.Role(), d.FramesSent)
		}
		for i, w := range ws {
			if v, err := e.OpenWord(w); err != nil || v != out[i] {
				t.Errorf("role %d word %d: OpenWords %d, OpenWord %d (%v)", e.Role(), i, out[i], v, err)
			}
		}
		if e.Role() == 1 {
			for range runs + 1 { // AllocsPerRun's warm-up call, then the measured ones
				_ = e.OpenWords(ws, out)
			}
		} else {
			allocs = testing.AllocsPerRun(runs, func() { _ = e.OpenWords(ws, out) })
		}
		return out
	})
	if !slices.Equal(r.out, vals) {
		t.Errorf("opened %v, want %v", r.out, vals)
	}
	if allocs != 0 {
		t.Errorf("a loopback OpenWords allocates %.1f times, want 0", allocs)
	}
}

// BenchmarkEvalCompareExchangeLoopback evaluates comparators between two
// evaluators over the in-process transport and reports the measured online
// rounds per comparator.
func BenchmarkEvalCompareExchangeLoopback(b *testing.B) {
	c0, c1 := wire.Loopback(256)
	defer c0.Close()
	defer c1.Close()
	var before wire.Stats
	evalPair(b, c0, c1, 100, b.N*CompareExchangeShape.ANDs(), 1, func(e *Eval) []uint32 {
		x, y := ShareOfWord(e.Role(), 123, 0xA5A5A5A5), ShareOfWord(e.Role(), 456, 0x5A5A5A5A)
		if e.Role() == 0 {
			before = c0.Stats()
			b.ResetTimer()
		}
		for i := 0; i < b.N; i++ {
			x, y = e.CompareExchange(y, x)
		}
		if e.Role() == 0 {
			b.StopTimer()
		}
		return nil
	})
	b.ReportMetric(float64(c0.Stats().Sub(before).Rounds)/float64(b.N), "rounds/op")
}
