package gmw

import (
	"encoding/binary"
	"errors"
	"fmt"

	"incshrink/internal/wire"
)

// Frame types of the gmw layer. They live above 0x0F so they can never
// collide with the runtime word frames of internal/mpc on a shared
// connection.
const (
	// FrameTriples carries a block of packed tuple shares from the dealing
	// side to its peer (offline phase), TupleBytes per tuple.
	FrameTriples byte = 0x10
	// FrameOpen carries one round of AND openings — the only online traffic
	// of the GMW protocol. For the k gates evaluated together the payload is
	// this party's k shares of δx = x^a, then its k shares of δy = y^b, then
	// of δz = z^c, then of δw = w^d, packed little-endian into ⌈4k/8⌉
	// bytes; the padding bits of the last byte are sent as zero and ignored
	// on receipt. k is public (it is the circuit's round shape), so the
	// receiver checks the length against it.
	FrameOpen byte = 0x11
	// FrameReveal carries an output opening: this party's 4-byte word
	// shares, little-endian, back to back.
	FrameReveal byte = 0x12
)

// maxLanes is the widest AND round: 128 gates, a 64-byte opening.
const maxLanes = 128

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
// of the word at position layout[i], the order in which the comparator's
// first round is shifts and masks (see fold). Build one with ShareOfWord or
// WordOfBit; OpenWords undoes the permutation.
type WordShare uint32

// vec is the lanes of one AND round, lane i at bit i%64 of word i/64.
type vec [2]uint64

// The comparator cuts a word into eleven blocks: block 0 is bits 0 and 1,
// block b ≥ 1 is bits 3b-1, 3b and 3b+1. A WordShare keeps the block at
// element position e in three fields: its top bit at e (fieldT), its middle
// bit at 11+e (fieldM; block 0 has none), its bottom bit at 21+e (fieldB).
const (
	word   = 0xFFFFFFFF
	fieldT = 0x7FF
	fieldM = 0x3FF << 11
	fieldB = 0x7FF << 21
)

// elements lists the block at each element position. The fold's second
// round folds three runs of blocks — H = blocks 10..7, M = 6..3, L = 2..0 —
// and wants the blocks of one rank in adjacent positions: the top block of
// H, M and L at 0, 1, 2, the second at 3, 4, 5, the fourth of H and M at 6,
// 7 and the third at 8, 9, 10. Block 0, whose P the fold never reads, lands
// last, so the blocks at 0..9 are exactly those with a middle bit.
var elements = [11]uint{10, 6, 2, 9, 5, 1, 7, 3, 8, 4, 0}

// layout[i] is the WordShare position of bit i of the word.
var layout = func() (to [32]uint8) {
	for e, b := range elements {
		if b == 0 {
			to[1], to[0] = uint8(e), uint8(21+e)
			continue
		}
		to[3*b+1], to[3*b], to[3*b-1] = uint8(e), uint8(11+e), uint8(21+e)
	}
	return to
}()

// toLayout moves bit i of v to position layout[i].
func toLayout(v uint32) (out uint32) {
	for i, p := range layout {
		out |= v >> uint(i) & 1 << p
	}
	return out
}

// fromLayout undoes toLayout.
func fromLayout(v uint32) (out uint32) {
	for i, p := range layout {
		out |= v >> p & 1 << uint(i)
	}
	return out
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
	// LessThanShape: the two rounds of the radix-4 (g, p) fold, then the
	// root. ThresholdCheck has the same shape.
	LessThanShape = Shape{42, 10, 2}
	// EqualShape: the AND tree over the 32 agreement bits.
	EqualShape = Shape{8, 2, 1}
	// CompareExchangeShape: the fold, then the root fused with the 32-lane
	// mux.
	CompareExchangeShape = Shape{42, 10, 96}
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
// outputs, which OpenWords callers check.
type Eval struct {
	role int // 0 or 1, the secretshare party index
	conn wire.Conn

	// ones is this party's share of the public constant 1 in every lane:
	// role 0 holds the value, role 1 holds zero.
	ones vec

	// pool holds the dealt tuple shares bit-sliced: bit j of pool[i][s-1]
	// is the share of the product over subset s at pool position 64i+j. It
	// keeps two zero blocks past the last position, so a round reads the
	// words under its lanes with shifts alone. size counts the positions
	// dealt; next is the first unconsumed one.
	pool       [][15]uint64
	size, next int

	// ANDGates and BitsSent tally the online phase; Openings is the public
	// online transcript (identical on both parties): per round, the opened
	// δx of every lane, then δy, then δz, then δw.
	ANDGates  int
	BitsSent  int
	Openings  []bool
	maxRecord int

	buf [4 * maxLanes / 8]byte
	err error
}

// NewEval creates one party's evaluator over conn. recordLimit bounds the
// retained opening transcript (0 keeps everything).
func NewEval(role int, conn wire.Conn, recordLimit int) *Eval {
	e := &Eval{role: role, conn: conn, maxRecord: recordLimit}
	if role == 0 {
		e.ones = vec{^uint64(0), ^uint64(0)}
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

// slice appends a FrameTriples payload of tuple shares to the pool,
// transposing up to 64 tuples at a time: eight tuples' low bytes and high
// bytes each make one word, and one multiply gathers a share bit of all
// eight.
func (e *Eval) slice(p []byte) {
	n := len(p) / TupleBytes
	if need := (e.size+n)/64 + 3; need > len(e.pool) {
		e.pool = append(e.pool, make([][15]uint64, need-len(e.pool))...)
	}
	for len(p) > 0 {
		m := min(len(p)/TupleBytes, 64)
		var w [15]uint64 // component s+1 of the run's tuple i at bit i of w[s]
		for g := 0; g < m; g += 8 {
			var chunk [8 * TupleBytes]byte
			copy(chunk[:], p[TupleBytes*g:TupleBytes*m])
			u0, u1 := binary.LittleEndian.Uint64(chunk[:8]), binary.LittleEndian.Uint64(chunk[8:])
			lo := evenBytes(u0) | evenBytes(u1)<<32
			hi := evenBytes(u0>>8) | evenBytes(u1>>8)<<32
			for s := range w {
				v := lo >> uint(s)
				if s >= 8 {
					v = hi >> uint(s-8)
				}
				w[s] |= (v & 0x0101010101010101 * 0x0102040810204080 >> 56) << uint(g)
			}
		}
		blk, at := e.size/64, uint(e.size%64)
		for s, v := range w {
			e.pool[blk][s] |= v << at
			e.pool[blk+1][s] |= v >> (64 - at)
		}
		p = p[TupleBytes*m:]
		e.size += m
	}
}

// evenBytes packs bytes 0, 2, 4 and 6 of x into its low 32 bits.
func evenBytes(x uint64) uint64 {
	x &= 0x00FF00FF00FF00FF
	x = (x | x>>8) & 0x0000FFFF0000FFFF
	return (x | x>>16) & 0xFFFFFFFF
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
	mine := make([]byte, TupleBytes*n)
	theirs := make([]byte, TupleBytes*n)
	for i := range n {
		t := d.Tuple()
		if e.role == 1 {
			t.S0, t.S1 = t.S1, t.S0
		}
		binary.LittleEndian.PutUint16(mine[TupleBytes*i:], t.S0)
		binary.LittleEndian.PutUint16(theirs[TupleBytes*i:], t.S1)
	}
	if err := e.conn.Send(FrameTriples, theirs); err != nil {
		e.fail(err)
		return e.err
	}
	e.slice(mine)
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
	if typ != FrameTriples || len(p)%TupleBytes != 0 {
		e.fail(fmt.Errorf("%w: want a tuples frame of whole tuples, got type %#x length %d", ErrBadFrame, typ, len(p)))
		return e.err
	}
	e.slice(p)
	return nil
}

// TriplesLeft returns the number of unconsumed tuples in the pool.
func (e *Eval) TriplesLeft() int { return e.size - e.next }

// take consumes the next k pool positions and returns their tuple words:
// t[s] holds, in lane i, this party's share of the product over subset s of
// the tuple at position next+i, lanes beyond k holding later positions. The
// caller has checked that k tuples are left.
func (e *Eval) take(k int) (t [16]vec) {
	i, off := e.next/64, uint(e.next%64)
	b0, b1, b2 := &e.pool[i], &e.pool[i+1], &e.pool[i+2]
	for s := range b0 {
		t[s+1] = vec{b0[s]>>off | b1[s]<<(64-off), b1[s]>>off | b2[s]<<(64-off)}
	}
	e.next += k
	return t
}

// record appends one round's opened lanes to the transcript.
func (e *Eval) record(v vec, k int) {
	for i := 0; i < k && (e.maxRecord == 0 || len(e.Openings) < e.maxRecord); i++ {
		e.Openings = append(e.Openings, v[i/64]>>uint(i%64)&1 == 1)
	}
}

// and evaluates k four-input AND gates (1 <= k <= maxLanes) in one round:
// lane i of the result is a share of x_i·y_i·z_i·w_i. A two-input gate
// passes the public constant 1 (e.ones) as z and w, a three-input gate as
// w. It consumes k distinct tuples, sends this party's 4k masked-opening
// share bits in one FrameOpen, receives the peer's, reconstructs the public
// δx, δy, δz and δw, and derives the output share from the expansion of
// (δx^a)(δy^b)(δz^c)(δw^d): the sum over the subsets s of {a, b, c, d} of
// the tuple's share of the product over s times the product of the δs of
// the other inputs, the empty subset's share being the public 1 — sixteen
// masked selects and no branch on an opened value.
//
// The openings are masked by the uniform tuple components a, b, c and d, so
// the frames on the wire reveal nothing about x, y, z and w (the uniformity
// test pins this). A pool holding fewer than k tuples fails the whole round
// before anything is sent or consumed. Every gate of the package, the
// single-bit AND included, is a call of this function.
func (e *Eval) and(x, y, z, w vec, k int) vec {
	if e.err != nil {
		return vec{}
	}
	if e.TriplesLeft() < k {
		e.fail(ErrNoTriples)
		return vec{}
	}
	t := e.take(k)
	t[0] = e.ones
	e.ANDGates += k
	e.BitsSent += 8 * k

	lanes := laneMask(k)
	var d [4]vec // δx, δy, δz, δw: this party's shares, then the opened values
	var out [9]uint64
	for j, v := range [4]vec{x, y, z, w} {
		tv := t[1<<j]
		d[j] = vec{(v[0] ^ tv[0]) & lanes[0], (v[1] ^ tv[1]) & lanes[1]}
		pack(&out, d[j][0], j*k)
		pack(&out, d[j][1], j*k+64)
	}
	n := (4*k + 7) / 8
	for i := 0; i < n; i += 8 {
		binary.LittleEndian.PutUint64(e.buf[i:], out[i/8])
	}
	if err := e.conn.Send(FrameOpen, e.buf[:n]); err != nil {
		e.fail(err)
		return vec{}
	}
	p := e.recv(FrameOpen, n)
	if p == nil {
		return vec{}
	}
	var in [len(e.buf)]byte
	copy(in[:], p)
	var peer [9]uint64
	for i := 0; i < n; i += 8 {
		peer[i/8] = binary.LittleEndian.Uint64(in[i:])
	}
	for j := range d {
		d[j][0] ^= unpack(&peer, j*k) & lanes[0]
		d[j][1] ^= unpack(&peer, j*k+64) & lanes[1]
		e.record(d[j], k)
	}

	// prod[m] is the product of the δs in the input subset m.
	var prod [16]vec
	prod[0] = vec{^uint64(0), ^uint64(0)}
	for j := range d {
		for m := range 1 << j {
			prod[m|1<<j] = vec{prod[m][0] & d[j][0], prod[m][1] & d[j][1]}
		}
	}
	var r vec
	for s := range t {
		r[0] ^= t[s][0] & prod[15^s][0]
		r[1] ^= t[s][1] & prod[15^s][1]
	}
	return vec{r[0] & lanes[0], r[1] & lanes[1]}
}

// laneMask has the low k lanes set.
func laneMask(k int) vec {
	return vec{^uint64(0) >> uint(64-min(k, 64)), ^uint64(0) >> uint(128-max(k, 64))}
}

// pack ORs v into the bit vector w at bit offset off (off <= 448). Shifts
// of 64 are zero in Go, so a word-aligned offset needs no special case.
func pack(w *[9]uint64, v uint64, off int) {
	w[off/64] |= v << uint(off%64)
	w[off/64+1] |= v >> uint(64-off%64)
}

// unpack reads the 64 bits of w starting at bit offset off (off <= 448).
func unpack(w *[9]uint64, off int) uint64 {
	return w[off/64]>>uint(off%64) | w[off/64+1]<<uint(64-off%64)
}

// not flips the cleartext of the low k lanes (k <= 64) by having role 0
// flip its shares. Free.
func (e *Eval) not(x uint64, k int) uint64 {
	return x ^ e.ones[0]>>uint(64-k)
}

// or is k OR gates via De Morgan: one k-lane AND round.
func (e *Eval) or(x, y uint64, k int) uint64 {
	return e.not(e.and(vec{e.not(x, k)}, vec{e.not(y, k)}, e.ones, e.ones, k)[0], k)
}

// XOR is a local gate: XOR of the local shares. Free in GMW.
func (e *Eval) XOR(x, y BitShare) BitShare { return x ^ y }

// NOT flips the cleartext by having role 0 flip its share. Free.
func (e *Eval) NOT(x BitShare) BitShare { return BitShare(e.not(uint64(x), 1)) }

// AND is one AND gate: a one-lane round.
func (e *Eval) AND(x, y BitShare) BitShare {
	return BitShare(e.and(vec{uint64(x)}, vec{uint64(y)}, e.ones, e.ones, 1)[0])
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
	for _, pos := range layout {
		xi, yi := uint64(x>>pos&1), uint64(y>>pos&1)
		z |= WordShare(xi^yi^carry) << pos
		carry ^= e.and(vec{xi ^ carry}, vec{yi ^ carry}, e.ones, e.ones, 1)[0]
	}
	return z
}

// fold runs the first two rounds of the comparison x < y. Each bit i
// contributes a pair (g, p) = (x_i < y_i, x_i = y_i) = (¬x_i·y_i,
// ¬(x_i ^ y_i)), and adjacent runs of bits combine, more significant first,
// by the associative
//
//	(g, p)hi ∘ (g, p)lo = (g_hi ^ p_hi·g_lo, p_hi·p_lo)
//
// A four-input gate folds four elements in one round:
// G = G_3 ^ P_3·G_2 ^ P_3·P_2·G_1 ^ P_3·P_2·P_1·G_0, P = P_3·P_2·P_1·P_0. A
// round at most quadruples the degree in the input bits and the
// comparator's output bit has degree 34 (d_k·p_31···p_1·g_0), so ⌈log₄ 34⌉
// = 3 rounds, the root included, is the least any circuit of such gates
// can take.
//
// Round 1 folds each 3-bit block with the per-bit generates inlined —
// G = ¬x_2·y_2 ^ p_2·¬x_1·y_1 ^ p_2·p_1·¬x_0·y_0 and P = p_2·p_1·p_0, block
// 0 being two bits without P — 42 lanes laid out as the WordShare fields:
// the top-bit terms at 0..10, the middle-bit terms at 11..20, the
// bottom-bit terms at 21..31 and the Ps at 32..41. Round 2 folds the runs
// H, M and L of the elements (see elements), 10 lanes: the two-element
// terms P_3·G_2 of H, M and L at 0..2, the three-element terms at 3..5, the
// four-element terms of H and M at 6..7 and their Ps at 8..9. fold returns
// G of H, M and L in bits 0, 1 and 2 of g and P of H and M in bits 0 and 1
// of p, so that x < y is G_H ^ P_H·G_M ^ P_H·P_M·G_L.
func (e *Eval) fold(x, y WordShare) (g, p uint64) {
	a, b := uint64(x), uint64(y)
	na, q := e.not(a, 32), e.not(a^b, 32)
	one := e.ones[0]
	t := e.and(
		vec{na&fieldT | (q&0x3FF)<<11 | (q&fieldT)<<21 | (q&0x3FF)<<32},
		vec{b&fieldT | na&fieldM | (q&fieldM)<<10 | one&(1<<31) | (q&fieldM)<<21},
		vec{one&fieldT | b&fieldM | na&fieldB | (q&(0x3FF<<21))<<11},
		vec{one&(fieldT|fieldM) | b&fieldB | one&(0x3FF<<32)}, 42)[0]
	g = t&fieldT ^ t>>11&0x3FF ^ t>>21&fieldT
	p = t >> 32 & 0x3FF
	t = e.and(
		vec{p&7 | (p&7)<<3 | (p&3)<<6 | (p&3)<<8},
		vec{g>>3&7 | (p>>3&7)<<3 | (p>>3&3)<<6 | (p>>3&3)<<8},
		vec{one&7 | (g>>8&7)<<3 | (p>>8&3)<<6 | (p>>8&3)<<8},
		vec{one&0x3F | (g>>6&3)<<6 | (p>>6&3)<<8}, 10)[0]
	return g&7 ^ t&7 ^ t>>3&7 ^ t>>6&3, t >> 8 & 3
}

// LessThan compares two unsigned word shares: the shared bit x < y, 54 AND
// gates in 3 rounds — fold, then the root G_H ^ P_H·G_M ^ P_H·P_M·G_L.
func (e *Eval) LessThan(x, y WordShare) BitShare {
	g, p := e.fold(x, y)
	t := e.and(vec{p&1 | (p&1)<<1}, vec{g>>1&1 | (p>>1&1)<<1}, vec{e.ones[0]&1 | (g>>2&1)<<1}, e.ones, 2)[0]
	return BitShare((g ^ t ^ t>>1) & 1)
}

// Equal tests x == y: the AND of the 32 agreement bits ¬(x_i ^ y_i) as a
// tree of four-input gates, 32 → 8 → 2 → 1, 11 AND gates in 3 rounds.
func (e *Eval) Equal(x, y WordShare) BitShare {
	v := e.not(uint64(x^y), 32)
	for _, n := range [...]uint{8, 2} {
		m := uint64(1)<<n - 1
		v = e.and(vec{v & m}, vec{v >> n & m}, vec{v >> (2 * n) & m}, vec{v >> (3 * n) & m}, int(n))[0]
	}
	return BitShare(e.and(vec{v}, vec{v >> 1}, e.ones, e.ones, 1)[0])
}

// MUXWords selects between two word shares with one shared selector bit:
// x ^ sel·(x ^ y), one 32-lane round.
func (e *Eval) MUXWords(sel BitShare, x, y WordShare) WordShare {
	return x ^ WordShare(e.and(vec{-uint64(sel) & word}, vec{uint64(x ^ y)}, e.ones, e.ones, 32)[0])
}

// CompareExchange is the sorting-network comparator over two secret words:
// output (min, max). This is the gate-level realization of what the
// internal/oblivious sort kernel executes logically (a test there pins the
// two to the same outputs, ties included) and what the cost model charges
// per comparator. Both outputs share the one mux product m = gt·(x ^ y):
// lo = x ^ m, hi = y ^ m. The root of gt = [y < x] is fused into the mux,
// m_k = d_k·G_H ^ d_k·P_H·G_M ^ d_k·P_H·P_M·G_L with d = x ^ y: 96 lanes in
// the last round, two words. 148 AND gates in 3 rounds.
func (e *Eval) CompareExchange(x, y WordShare) (lo, hi WordShare) {
	g, p := e.fold(y, x) // swap needed when x > y
	d := uint64(x ^ y)
	gH, gM, gL := -(g&1)&word, -(g>>1&1)&word, -(g>>2&1)&word
	pH, pM := -(p&1)&word, -(p>>1&1)&word
	m := e.and(vec{d | d<<32, d}, vec{gH | pH<<32, pH}, vec{e.ones[0]&word | gM<<32, pM}, vec{e.ones[0], gL}, 96)
	lo = x ^ WordShare(m[0]^m[0]>>32^m[1])
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
	return WordShare(toLayout(mask))
}

// WordOfBit widens a bit share to a word share whose bit 0 is b, so a
// circuit's bit output can be opened with OpenWord.
func WordOfBit(b BitShare) WordShare { return WordShare(b) << layout[0] }

// OpenWord reveals a secret word: OpenWords of one word.
func (e *Eval) OpenWord(w WordShare) (uint32, error) {
	var out [1]uint32
	err := e.OpenWords([]WordShare{w}, out[:])
	return out[0], err
}

// OpenWords reveals a vector of secret words into out[:len(ws)] in one
// round: exchange the packed 4-byte shares in one FrameReveal frame each way
// and XOR. Both parties learn the cleartexts; use only on protocol outputs.
func (e *Eval) OpenWords(ws []WordShare, out []uint32) error {
	if e.err != nil {
		return e.err
	}
	out = out[:len(ws)]
	p := e.buf[:0]
	for _, w := range ws {
		p = binary.LittleEndian.AppendUint32(p, uint32(w))
	}
	e.BitsSent += 64 * len(ws)
	if err := e.conn.Send(FrameReveal, p); err != nil {
		e.fail(err)
		return e.err
	}
	if p = e.recv(FrameReveal, 4*len(ws)); p == nil {
		return e.err
	}
	for i, w := range ws {
		out[i] = fromLayout(uint32(w) ^ binary.LittleEndian.Uint32(p[4*i:]))
	}
	return nil
}

// Stats summarizes the evaluation.
func (e *Eval) Stats() string {
	return fmt.Sprintf("gmw.Eval{role=%d and=%d bits=%d}", e.role, e.ANDGates, e.BitsSent)
}
