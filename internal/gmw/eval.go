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
	// FrameTriples carries a block of packed Beaver-triple shares from the
	// dealing side to its peer (offline phase), one byte per triple.
	FrameTriples byte = 0x10
	// FrameOpen carries one round of AND openings — the only online traffic
	// of the GMW protocol. For the k gates evaluated together the payload is
	// this party's k shares of d = x^a followed by its k shares of e = y^b,
	// packed little-endian into ⌈2k/8⌉ bytes; the padding bits of the last
	// byte are sent as zero and ignored on receipt. k is public (it is the
	// circuit's round shape), so the receiver checks the length against it.
	FrameOpen byte = 0x11
	// FrameReveal carries one 4-byte word share for an output opening.
	FrameReveal byte = 0x12
)

// maxLanes is the widest AND round: 64 gates, a 16-byte opening.
const maxLanes = 64

var (
	// ErrNoTriples reports an online AND round with too few triples left in
	// the pool: the offline phase did not deal enough correlated randomness.
	ErrNoTriples = errors.New("gmw: triple pool exhausted")
	// ErrBadFrame reports a peer frame of the wrong type or length for the
	// protocol step in progress.
	ErrBadFrame = errors.New("gmw: unexpected frame")
)

// BitShare is one party's share of a secret bit: 0 or 1.
type BitShare uint8

// WordShare is one party's share of a secret 32-bit word, packed with bit i
// of the word at position rev5(i), the 5-bit reversal of i. In that order
// the two halves of any aligned 2n-bit prefix hold the even and the odd
// elements of an n-pair fold, so every level of the log-depth comparator is
// a shift and a mask with no gather (see LessThan). Build one with
// ShareOfWord or WordOfBit; OpenWord undoes the permutation.
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

// Shape is the public online schedule of a circuit: the lane count of each
// of its AND rounds, in order (circuits run back to back have their shapes
// concatenated). It is what the triple budget (ANDs) and the closed-form
// wire price (mpc.PredictOpenRounds) are computed from; the tests hold every
// circuit to its declared shape by the conn counters.
type Shape []int

// ANDs is the number of AND gates, and so of triples, the circuit consumes.
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
	// LessThanShape: 32 per-bit generates, then the pairwise (g, p) fold.
	// ThresholdCheck has the same shape.
	LessThanShape = Shape{32, 32, 16, 8, 4, 1}
	// EqualShape: the OR tree over the 32 difference bits.
	EqualShape = Shape{16, 8, 4, 2, 1}
	// CompareExchangeShape: LessThan, then the one shared 32-lane mux.
	CompareExchangeShape = Shape{32, 32, 16, 8, 4, 1, 32}
)

// Eval drives one party's half of GMW circuit evaluation over a transport:
// the offline triples are dealt as a message from the dealing side, every
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

	// triples is the pool, one packed triple share per byte (bits 0..2 =
	// a, b, c — the FrameTriples layout); next is the first unconsumed one.
	triples []byte
	next    int

	// ANDGates and BitsSent tally the online phase; Openings is the public
	// online transcript (identical on both parties): per round, the opened d
	// of every lane and then the opened e of every lane.
	ANDGates  int
	BitsSent  int
	Openings  []bool
	maxRecord int

	buf [2 * maxLanes / 8]byte
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

// DealTriples runs the dealing side of the offline phase: draw n triples
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
		mine[i], theirs[i] = d.Triple().halves()
	}
	if e.role == 1 {
		mine, theirs = theirs, mine
	}
	if err := e.conn.Send(FrameTriples, theirs); err != nil {
		e.fail(err)
		return e.err
	}
	e.triples = append(e.triples, mine...)
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
		e.fail(fmt.Errorf("%w: want triples frame, got type %#x", ErrBadFrame, typ))
		return e.err
	}
	e.triples = append(e.triples, p...)
	return nil
}

// TriplesLeft returns the number of unconsumed triples in the pool.
func (e *Eval) TriplesLeft() int { return len(e.triples) - e.next }

// record appends one round's opened lanes to the transcript.
func (e *Eval) record(v uint64, k int) {
	for i := 0; i < k && (e.maxRecord == 0 || len(e.Openings) < e.maxRecord); i++ {
		e.Openings = append(e.Openings, v>>uint(i)&1 == 1)
	}
}

// and evaluates k AND gates (1 <= k <= maxLanes) in one round: lane i of the
// result is a share of x_i AND y_i, lanes in the low k bits. It consumes k
// distinct triples, sends this party's 2k masked-opening share bits in one
// FrameOpen, receives the peer's, reconstructs the public d and e, and
// derives the output shares by the Beaver identity as a masked select
//
//	z = c ^ (d & b) ^ (e & a) ^ (d & e at role 0)
//
// The openings are masked by the uniform triple components, so the frames on
// the wire reveal nothing about x and y (the uniformity test pins this). A
// pool holding fewer than k triples fails the whole round before anything is
// sent or consumed. Every gate of the package, the single-bit AND included,
// is a call of this function.
func (e *Eval) and(x, y uint64, k int) uint64 {
	if e.err != nil {
		return 0
	}
	if e.TriplesLeft() < k {
		e.fail(ErrNoTriples)
		return 0
	}
	var a, b, c uint64
	for i, t := range e.triples[e.next : e.next+k] {
		a |= uint64(t&1) << uint(i)
		b |= uint64(t>>1&1) << uint(i)
		c |= uint64(t>>2&1) << uint(i)
	}
	e.next += k
	e.ANDGates += k
	e.BitsSent += 4 * k

	lanes := ^uint64(0) >> uint(64-k)
	ds, es := (x^a)&lanes, (y^b)&lanes
	n := (2*k + 7) / 8
	binary.LittleEndian.PutUint64(e.buf[:8], ds|es<<uint(k))
	binary.LittleEndian.PutUint64(e.buf[8:], es>>uint(64-k))
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
	lo, hi := binary.LittleEndian.Uint64(in[:8]), binary.LittleEndian.Uint64(in[8:])
	d := ds ^ lo&lanes
	eo := es ^ (lo>>uint(k)|hi<<uint(64-k))&lanes
	e.record(d, k)
	e.record(eo, k)
	return c ^ d&b ^ eo&a ^ d&eo&e.ones
}

// not flips the cleartext of the low k lanes by having role 0 flip its
// shares. Free.
func (e *Eval) not(x uint64, k int) uint64 {
	return x ^ e.ones>>uint(64-k)
}

// or is k OR gates via De Morgan: one k-lane AND round.
func (e *Eval) or(x, y uint64, k int) uint64 {
	return e.not(e.and(e.not(x, k), e.not(y, k), k), k)
}

// XOR is a local gate: XOR of the local shares. Free in GMW.
func (e *Eval) XOR(x, y BitShare) BitShare { return x ^ y }

// NOT flips the cleartext by having role 0 flip its share. Free.
func (e *Eval) NOT(x BitShare) BitShare { return BitShare(e.not(uint64(x), 1)) }

// AND is one AND gate: a one-lane round.
func (e *Eval) AND(x, y BitShare) BitShare {
	return BitShare(e.and(uint64(x), uint64(y), 1))
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
		carry ^= e.and(xi^carry, yi^carry, 1)
	}
	return z
}

// LessThan compares two unsigned word shares: the shared bit x < y, 93 AND
// gates in 6 rounds. Each bit contributes a pair (g, p) = (x_i < y_i,
// x_i = y_i); adjacent segments combine, more significant first, as
//
//	(g, p)hi ∘ (g, p)lo = (g_hi ^ p_hi·g_lo, p_hi·p_lo)
//
// and the g of the whole word is the answer. The operator is associative,
// so the 32 pairs fold as a balanced tree. In WordShare's bit order the less
// significant element of every pair sits in the lower half of the vector and
// the more significant in the upper half, at the same offset, and the
// results land in the same order one level up.
func (e *Eval) LessThan(x, y WordShare) BitShare {
	g := e.and(e.not(uint64(x), 32), uint64(y), 32)
	p := e.not(uint64(x^y), 32)
	for n := uint(16); n > 1; n >>= 1 {
		half := uint64(1)<<n - 1
		ph := p >> n
		t := e.and(ph|ph<<n, g&half|(p&half)<<n, int(2*n))
		g, p = g>>n^t&half, t>>n
	}
	// The last level needs only g.
	return BitShare(g>>1 ^ e.and(p>>1, g&1, 1))
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
	return x ^ WordShare(e.and(-uint64(sel)&0xFFFFFFFF, uint64(x^y), 32))
}

// CompareExchange is the sorting-network comparator over two secret words:
// output (min, max). This is the gate-level realization of what the
// internal/oblivious sort kernel executes logically (a test there pins the
// two to the same outputs, ties included) and what the cost model charges
// per comparator. Both outputs share the one mux product m = gt·(x ^ y):
// lo = x ^ m, hi = y ^ m. 125 AND gates in 7 rounds.
func (e *Eval) CompareExchange(x, y WordShare) (lo, hi WordShare) {
	gt := e.LessThan(y, x) // swap needed when x > y
	lo = e.MUXWords(gt, x, y)
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
