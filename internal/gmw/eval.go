package gmw

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"

	"incshrink/internal/wire"
)

// Frame types of the gmw layer. They live above 0x0F so they can never
// collide with the runtime word frames of internal/mpc on a shared
// connection.
const (
	// FrameTriples carries a block of packed tuple shares from the dealing
	// side to its peer (offline phase), one byte per tuple.
	FrameTriples byte = 0x10
	// FrameOpen carries one round of AND openings — the only online traffic
	// of the GMW protocol. For the k gates evaluated together the payload is
	// this party's k shares of δx = x^a, then its k shares of δy = y^b, then
	// its k shares of δz = z^c, packed little-endian into ⌈3k/8⌉ bytes; the
	// padding bits of the last byte are sent as zero and ignored on receipt.
	// k is public (it is the circuit's round shape), so the receiver checks
	// the length against it.
	FrameOpen byte = 0x11
	// FrameReveal carries one 4-byte word share for an output opening.
	FrameReveal byte = 0x12
)

// maxLanes is the widest AND round: 64 gates, a 24-byte opening.
const maxLanes = 64

var (
	// ErrNoTriples reports an online AND round with too few tuples left in
	// the pool: the offline phase did not deal enough correlated randomness.
	ErrNoTriples = errors.New("gmw: tuple pool exhausted")
	// ErrBadFrame reports a peer frame of the wrong type or length for the
	// protocol step in progress.
	ErrBadFrame = errors.New("gmw: unexpected frame")
)

// BitShare is one party's share of a secret bit: 0 or 1.
type BitShare uint8

// WordShare is one party's share of a secret 32-bit word, packed with bit i
// of the word at position rev5(i), the 5-bit reversal of i. In that order
// the two bits of every 2-bit segment sit 16 positions apart (bit 2j at
// rev4(j), bit 2j+1 at 16+rev4(j)), so the comparator's first round is a
// shift and a mask (see fold). Build one with ShareOfWord or WordOfBit;
// OpenWord undoes the permutation.
type WordShare uint32

// bitrev applies the bit-reversal permutation to a word: bit i moves to
// position rev5(i). Reversing a 5-bit index swaps its bits (0,4) and (1,3),
// and swapping two index bits is one delta swap of the word. An involution.
func bitrev(v uint32) uint32 {
	t := (v>>15 ^ v) & 0x0000AAAA
	v ^= t | t<<15
	t = (v>>6 ^ v) & 0x00CC00CC
	return v ^ (t | t<<6)
}

// segments relabels a WordShare so that position j holds bit 2j of the word
// and position 16+j bit 2j+1: it applies rev4 to the positions of each
// 16-bit half, swapping index bits (0,3) and then (1,2), two delta swaps.
func segments(v uint32) uint32 {
	t := (v>>7 ^ v) & 0x00AA00AA
	v ^= t | t<<7
	t = (v>>2 ^ v) & 0x0C0C0C0C
	return v ^ (t | t<<2)
}

// Shape is the public online schedule of a circuit: the lane count of each
// of its AND rounds, in order (circuits run back to back have their shapes
// concatenated). It is what the tuple budget (ANDs) and the closed-form
// wire price (mpc.PredictOpenRounds) are computed from; the tests hold every
// circuit to its declared shape by the conn counters.
type Shape []int

// ANDs is the number of AND gates, and so of tuples, the circuit consumes.
func (s Shape) ANDs() int {
	n := 0
	for _, k := range s {
		n += k
	}
	return n
}

// Round shapes of the word circuits. Treat as read-only.
var (
	// AddShape: the ripple-carry adder, one gate per round.
	AddShape = Shape{
		1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
		1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
	}
	// LessThanShape: the three rounds of the radix-3 (g, p) fold, then the
	// root. ThresholdCheck has the same shape.
	LessThanShape = Shape{48, 16, 5, 1}
	// EqualShape: the OR tree over the 32 difference bits.
	EqualShape = Shape{16, 8, 4, 2, 1}
	// CompareExchangeShape: the fold, then the root fused with the 32-lane
	// mux.
	CompareExchangeShape = Shape{48, 16, 5, 64}
)

// Eval drives one party's half of GMW circuit evaluation over a transport:
// the offline tuples are dealt as a message from the dealing side, every
// round of AND gates exchanges its masked openings as one frame each way,
// and everything else is local.
//
// Methods after the first transport, framing or pool error are no-ops
// propagating the sticky error (Err), so word-level circuits compose without
// per-gate error plumbing. Both parties observe identical public openings; a
// per-gate consistency failure therefore surfaces as differing opened
// outputs, which OpenWord callers check.
type Eval struct {
	role int // 0 or 1, the secretshare party index
	conn wire.Conn

	// ones is this party's share of the public constant 1 in every lane:
	// role 0 holds the value, role 1 holds zero.
	ones uint64

	// tuples is the pool, one packed tuple share per byte (bits 0..6 = a,
	// b, c, ab, ac, bc, abc — the FrameTriples layout); next is the first
	// unconsumed one.
	tuples []byte
	next   int

	// ANDGates and BitsSent tally the online phase; Openings is the public
	// online transcript (identical on both parties): per round, the opened
	// δx of every lane, then δy, then δz.
	ANDGates  int
	BitsSent  int
	Openings  []bool
	maxRecord int

	buf [3 * maxLanes / 8]byte
	err error
}

// NewEval creates one party's evaluator over conn. recordLimit bounds the
// retained opening transcript (0 keeps everything).
func NewEval(role int, conn wire.Conn, recordLimit int) *Eval {
	e := &Eval{role: role, conn: conn, maxRecord: recordLimit}
	if role == 0 {
		e.ones = ^uint64(0)
	}
	return e
}

// Err returns the sticky transport/framing/pool error, if any.
func (e *Eval) Err() error { return e.err }

// Role returns the party index.
func (e *Eval) Role() int { return e.role }

// fail records the first error.
func (e *Eval) fail(err error) {
	if e.err == nil && err != nil {
		e.err = fmt.Errorf("gmw: role %d: %w", e.role, err)
	}
}

// recv reads the peer's next frame and holds it to the expected type and
// payload length; both are public functions of the protocol step.
func (e *Eval) recv(typ byte, n int) []byte {
	got, p, err := e.conn.Recv()
	if err != nil {
		e.fail(err)
		return nil
	}
	if got != typ || len(p) != n {
		e.fail(fmt.Errorf("%w: want type %#x length %d, got type %#x length %d", ErrBadFrame, typ, n, got, len(p)))
		return nil
	}
	return p
}

// DealTriples runs the dealing side of the offline phase: draw n tuples
// from the dealer, keep this party's halves, ship the peer's halves as one
// FrameTriples message. Either role may deal — the dealer never sees inputs,
// only correlated randomness — but by convention cmd/incshrink-party deals
// from role 0.
func (e *Eval) DealTriples(d *Dealer, n int) error {
	if e.err != nil {
		return e.err
	}
	mine := make([]byte, n)
	theirs := make([]byte, n)
	for i := range mine {
		mine[i], theirs[i] = d.Tuple().halves()
	}
	if e.role == 1 {
		mine, theirs = theirs, mine
	}
	if err := e.conn.Send(FrameTriples, theirs); err != nil {
		e.fail(err)
		return e.err
	}
	e.tuples = append(e.tuples, mine...)
	return nil
}

// RecvTriples runs the receiving side of the offline phase, accepting one
// FrameTriples block into the pool.
func (e *Eval) RecvTriples() error {
	if e.err != nil {
		return e.err
	}
	typ, p, err := e.conn.Recv()
	if err != nil {
		e.fail(err)
		return e.err
	}
	if typ != FrameTriples {
		e.fail(fmt.Errorf("%w: want tuples frame, got type %#x", ErrBadFrame, typ))
		return e.err
	}
	e.tuples = append(e.tuples, p...)
	return nil
}

// TriplesLeft returns the number of unconsumed tuples in the pool.
func (e *Eval) TriplesLeft() int { return len(e.tuples) - e.next }

// record appends one round's opened lanes to the transcript.
func (e *Eval) record(v uint64, k int) {
	for i := 0; i < k && (e.maxRecord == 0 || len(e.Openings) < e.maxRecord); i++ {
		e.Openings = append(e.Openings, v>>uint(i)&1 == 1)
	}
}

// and evaluates k three-input AND gates (1 <= k <= maxLanes) in one round:
// lane i of the result is a share of x_i AND y_i AND z_i, lanes in the low
// k bits; a two-input gate passes the public constant 1 (e.ones) as z. It
// consumes k distinct tuples, sends this party's 3k masked-opening share
// bits in one FrameOpen, receives the peer's, reconstructs the public δx,
// δy and δz, and derives the output shares from the expansion of
// (δx^a)(δy^b)(δz^c) as a masked select
//
//	abc ^ δx·bc ^ δy·ac ^ δz·ab ^ δxδy·c ^ δxδz·b ^ δyδz·a ^ (δxδyδz at role 0)
//
// The openings are masked by the uniform tuple components a, b and c, so the
// frames on the wire reveal nothing about x, y and z (the uniformity test
// pins this). A pool holding fewer than k tuples fails the whole round
// before anything is sent or consumed. Every gate of the package, the
// single-bit AND included, is a call of this function.
func (e *Eval) and(x, y, z uint64, k int) uint64 {
	if e.err != nil {
		return 0
	}
	if e.TriplesLeft() < k {
		e.fail(ErrNoTriples)
		return 0
	}
	var a, b, c, ab, ac, bc, abc uint64
	for i, t := range e.tuples[e.next : e.next+k] {
		v := uint64(t)
		a |= v & 1 << uint(i)
		b |= v >> 1 & 1 << uint(i)
		c |= v >> 2 & 1 << uint(i)
		ab |= v >> 3 & 1 << uint(i)
		ac |= v >> 4 & 1 << uint(i)
		bc |= v >> 5 & 1 << uint(i)
		abc |= v >> 6 & 1 << uint(i)
	}
	e.next += k
	e.ANDGates += k
	e.BitsSent += 6 * k

	lanes := ^uint64(0) >> uint(64-k)
	dx, dy, dz := (x^a)&lanes, (y^b)&lanes, (z^c)&lanes
	var w [4]uint64 // the 3k opening bits, little-endian, and a zero word
	pack(&w, dx, 0)
	pack(&w, dy, k)
	pack(&w, dz, 2*k)
	for i := range 3 {
		binary.LittleEndian.PutUint64(e.buf[8*i:], w[i])
	}
	n := (3*k + 7) / 8
	if err := e.conn.Send(FrameOpen, e.buf[:n]); err != nil {
		e.fail(err)
		return 0
	}
	p := e.recv(FrameOpen, n)
	if p == nil {
		return 0
	}
	var in [len(e.buf)]byte
	copy(in[:], p)
	for i := range 3 {
		w[i] = binary.LittleEndian.Uint64(in[8*i:])
	}
	dx ^= unpack(&w, 0) & lanes
	dy ^= unpack(&w, k) & lanes
	dz ^= unpack(&w, 2*k) & lanes
	e.record(dx, k)
	e.record(dy, k)
	e.record(dz, k)
	return abc ^ dx&bc ^ dy&ac ^ dz&ab ^ dx&dy&c ^ dx&dz&b ^ dy&dz&a ^ dx&dy&dz&e.ones
}

// pack ORs v into the bit vector w at bit offset off (off <= 128). Shifts
// of 64 are zero in Go, so a word-aligned offset needs no special case.
func pack(w *[4]uint64, v uint64, off int) {
	w[off/64] |= v << uint(off%64)
	w[off/64+1] |= v >> uint(64-off%64)
}

// unpack reads the 64 bits of w starting at bit offset off (off <= 128).
func unpack(w *[4]uint64, off int) uint64 {
	return w[off/64]>>uint(off%64) | w[off/64+1]<<uint(64-off%64)
}

// not flips the cleartext of the low k lanes by having role 0 flip its
// shares. Free.
func (e *Eval) not(x uint64, k int) uint64 {
	return x ^ e.ones>>uint(64-k)
}

// or is k OR gates via De Morgan: one k-lane AND round.
func (e *Eval) or(x, y uint64, k int) uint64 {
	return e.not(e.and(e.not(x, k), e.not(y, k), e.ones, k), k)
}

// XOR is a local gate: XOR of the local shares. Free in GMW.
func (e *Eval) XOR(x, y BitShare) BitShare { return x ^ y }

// NOT flips the cleartext by having role 0 flip its share. Free.
func (e *Eval) NOT(x BitShare) BitShare { return BitShare(e.not(uint64(x), 1)) }

// AND is one AND gate: a one-lane round.
func (e *Eval) AND(x, y BitShare) BitShare {
	return BitShare(e.and(uint64(x), uint64(y), e.ones, 1))
}

// OR via De Morgan: one AND gate.
func (e *Eval) OR(x, y BitShare) BitShare {
	return BitShare(e.or(uint64(x), uint64(y), 1))
}

// MUX selects y when sel is 1 and x otherwise. One AND gate.
func (e *Eval) MUX(sel, x, y BitShare) BitShare {
	return x ^ e.AND(sel, x^y)
}

// XORWords is the bitwise XOR of two word shares (free).
func (e *Eval) XORWords(x, y WordShare) WordShare { return x ^ y }

// Add is the 32-bit ripple-carry adder: 32 full adders, each one AND gate
// via the carry recurrence carry' = carry ^ ((x ^ carry) & (y ^ carry)), so
// 32 sequential one-lane rounds.
func (e *Eval) Add(x, y WordShare) WordShare {
	var z WordShare
	var carry uint64
	for i := 0; i < 32; i++ {
		pos := uint(bits.Reverse8(uint8(i)) >> 3)
		xi, yi := uint64(x>>pos&1), uint64(y>>pos&1)
		z |= WordShare(xi^yi^carry) << pos
		carry ^= e.and(xi^carry, yi^carry, e.ones, 1)
	}
	return z
}

// group is a run of two or three adjacent (g, p) elements of a fold round,
// from element lo upward; wantP asks for the run's P as well as its G.
type group struct {
	lo, n uint
	wantP bool
}

// combine is one radix-3 fold round: each group of (g, p) elements, bit i
// of g and p being element i, becomes one element of the result, bit q for
// groups[q]. A run folds, most significant element first, as
//
//	G = G_2 ^ P_2·G_1 ^ P_2·P_1·G_0,  P = P_2·P_1·P_0
//
// (drop the last terms for a run of two): one gate per product term of G and
// one for P, each of at most three inputs, all in one round.
func (e *Eval) combine(g, p uint64, groups []group) (gOut, pOut uint64) {
	one := e.ones & 1
	bit := func(v uint64, i uint) uint64 { return v >> i & 1 }
	var x, y, z uint64
	k := 0
	gate := func(xi, yi, zi uint64) {
		x, y, z = x|xi<<uint(k), y|yi<<uint(k), z|zi<<uint(k)
		k++
	}
	for _, gr := range groups {
		top := gr.lo + gr.n - 1
		gate(bit(p, top), bit(g, top-1), one)
		pz := one
		if gr.n == 3 {
			gate(bit(p, top), bit(p, top-1), bit(g, gr.lo))
			pz = bit(p, gr.lo)
		}
		if gr.wantP {
			gate(bit(p, top), bit(p, top-1), pz)
		}
	}
	t := e.and(x, y, z, k)
	at := uint(0)
	for q, gr := range groups {
		gq := bit(g, gr.lo+gr.n-1)
		for i := uint(1); i < gr.n; i++ {
			gq ^= bit(t, at)
			at++
		}
		gOut |= gq << uint(q)
		if gr.wantP {
			pOut |= bit(t, at) << uint(q)
			at++
		}
	}
	return gOut, pOut
}

// Groups of the comparator's second and third fold rounds: each 16-bit half
// of 8 segments folds as runs of 2, 3 and 3 (16 gates), then each half's
// three runs fold into one — the high half with its P, the low half without,
// since only the high half's P reaches the root (5 gates).
var (
	foldSegments = []group{{0, 2, true}, {2, 3, true}, {5, 3, true}, {8, 2, true}, {10, 3, true}, {13, 3, true}}
	foldHalves   = []group{{0, 3, false}, {3, 3, true}}
)

// fold runs the first three rounds of the comparison x < y and returns the
// shared (G, P) of the high 16-bit half and the G of the low half, so that
// x < y is G_H ^ P_H·G_L. Each bit i contributes a pair (g, p) = (x_i < y_i,
// x_i = y_i) = (¬x_i·y_i, ¬(x_i ^ y_i)), and adjacent segments combine, more
// significant first, by the associative
//
//	(g, p)hi ∘ (g, p)lo = (g_hi ^ p_hi·g_lo, p_hi·p_lo)
//
// With three-input gates one round folds three segments (combine), and a
// round at most triples the degree in the input bits; the answer's top term
// p_31···p_1·g_0 has degree 33, so ⌈log₃ 33⌉ = 4 rounds, the root included,
// is the least any circuit of such gates can take. Round 1
// folds the 16 2-bit segments with the per-bit generates inlined:
// G = ¬x_hi·y_hi ^ p_hi·¬x_lo·y_lo (a two-input and a three-input gate) and
// P = p_hi·p_lo, 48 lanes that are shifts and masks of the inputs once
// segments has put segment j's bits at positions j and 16+j.
func (e *Eval) fold(x, y WordShare) (gHi, pHi, gLo uint64) {
	const half = 0xFFFF
	a, b := uint64(segments(uint32(x))), uint64(segments(uint32(y)))
	na, p := e.not(a, 32), e.not(a^b, 32)
	one := e.ones & half
	t := e.and(na>>16|p>>16<<16|p>>16<<32, b>>16|(na&half)<<16|(p&half)<<32, one|(b&half)<<16|one<<32, 48)
	g, p := (t^t>>16)&half, t>>32
	g, p = e.combine(g, p, foldSegments)
	g, p = e.combine(g, p, foldHalves)
	return g >> 1, p >> 1, g & 1
}

// LessThan compares two unsigned word shares: the shared bit x < y, 70 AND
// gates in 4 rounds — fold, then the root G_H ^ P_H·G_L.
func (e *Eval) LessThan(x, y WordShare) BitShare {
	gHi, pHi, gLo := e.fold(x, y)
	return BitShare(gHi ^ e.and(pHi, gLo, e.ones, 1))
}

// Equal tests x == y: an OR tree over the difference bits, 31 AND gates in
// 5 rounds.
func (e *Eval) Equal(x, y WordShare) BitShare {
	diff := uint64(x ^ y)
	for n := uint(16); n >= 1; n >>= 1 {
		diff = e.or(diff>>n, diff&(1<<n-1), int(n))
	}
	return e.NOT(BitShare(diff))
}

// MUXWords selects between two word shares with one shared selector bit:
// x ^ sel·(x ^ y), one 32-lane round.
func (e *Eval) MUXWords(sel BitShare, x, y WordShare) WordShare {
	return x ^ WordShare(e.and(-uint64(sel)&0xFFFFFFFF, uint64(x^y), e.ones, 32))
}

// CompareExchange is the sorting-network comparator over two secret words:
// output (min, max). This is the gate-level realization of what the
// internal/oblivious sort kernel executes logically (a test there pins the
// two to the same outputs, ties included) and what the cost model charges
// per comparator. Both outputs share the one mux product m = gt·(x ^ y):
// lo = x ^ m, hi = y ^ m. The root of gt = [y < x] is fused into the mux,
// m_k = d_k·G_H ^ d_k·P_H·G_L with d = x ^ y: 64 lanes in the last round.
// 133 AND gates in 4 rounds.
func (e *Eval) CompareExchange(x, y WordShare) (lo, hi WordShare) {
	const word = 0xFFFFFFFF
	gHi, pHi, gLo := e.fold(y, x) // swap needed when x > y
	d := uint64(x ^ y)
	m := e.and(d|d<<32, -gHi&word|(-pHi&word)<<32, e.ones&word|(-gLo&word)<<32, 64)
	lo = x ^ WordShare(m^m>>32)
	return lo, lo ^ x ^ y
}

// CounterUpdate is the Transform counter step (Alg. 1 lines 4-6) as a wire
// circuit: the counter and the increment stay shared; the output is a fresh
// sharing of counter + delta.
func (e *Eval) CounterUpdate(counter, delta WordShare) WordShare {
	return e.Add(counter, delta)
}

// ThresholdCheck is the sDPANT condition (Alg. 3 line 7): the shared bit
// [noisyCount >= noisyThreshold].
func (e *Eval) ThresholdCheck(noisyCount, noisyThreshold WordShare) BitShare {
	return e.NOT(e.LessThan(noisyCount, noisyThreshold))
}

// ShareOfWord splits a cleartext word deterministically against a mask: the
// caller supplies this party's mask word (from whatever randomness source
// the deployment uses); role 0 holds the mask, role 1 holds value^mask. Both
// parties must pass the same mask for shares to reconstruct.
func ShareOfWord(role int, value, mask uint32) WordShare {
	if role == 1 {
		mask ^= value
	}
	return WordShare(bitrev(mask))
}

// WordOfBit widens a bit share to a word share whose bit 0 is b, so a
// circuit's bit output can be opened with OpenWord.
func WordOfBit(b BitShare) WordShare { return WordShare(b) }

// OpenWord reveals a secret word: exchange the packed 4-byte shares and XOR.
// Both parties learn the cleartext; use only on protocol outputs.
func (e *Eval) OpenWord(w WordShare) (uint32, error) {
	if e.err != nil {
		return 0, e.err
	}
	binary.LittleEndian.PutUint32(e.buf[:4], uint32(w))
	e.BitsSent += 64
	if err := e.conn.Send(FrameReveal, e.buf[:4]); err != nil {
		e.fail(err)
		return 0, e.err
	}
	p := e.recv(FrameReveal, 4)
	if p == nil {
		return 0, e.err
	}
	return bitrev(uint32(w) ^ binary.LittleEndian.Uint32(p)), nil
}

// Stats summarizes the evaluation.
func (e *Eval) Stats() string {
	return fmt.Sprintf("gmw.Eval{role=%d and=%d bits=%d}", e.role, e.ANDGates, e.BitsSent)
}
