// Package gmw implements an executable two-party semi-honest secure
// computation layer in the GMW style: boolean circuits evaluated over
// XOR-shared bits, with AND gates realized from Beaver multiplication
// triples handed out by an offline dealer (the standard preprocessing
// model; EMP-Toolkit's semi-honest backend plays the same role for the
// paper's prototype).
//
// The package serves two purposes in this reproduction:
//
//  1. It demonstrates the protocols IncShrink compiles — counter updates,
//     threshold comparisons, mux-based conditional swaps — actually running
//     gate by gate over shares, with the online transcript (the masked
//     openings d = x XOR a, e = y XOR b) visible for inspection.
//  2. It validates the cost simulator: the AND-gate counts of the word-level
//     circuits here (adders, comparators, muxes) are what
//     internal/mpc.CostModel charges per compare-exchange and per scan bit;
//     the cross-check test keeps the two in sync.
//
// Everything is computed over the two-party XOR sharing of
// internal/secretshare; a shared bit is one bit per party whose XOR is the
// cleartext.
package gmw

import (
	"fmt"
	"math/rand"
)

// Bit is a secret bit, XOR-shared across the two parties.
type Bit struct {
	S0, S1 bool
}

// Open reconstructs the cleartext bit.
func (b Bit) Open() bool { return b.S0 != b.S1 }

// Triple is one Beaver multiplication triple: shared bits a, b and c with
// c = a AND b. Each AND gate consumes exactly one triple.
type Triple struct {
	A, B, C Bit
}

// Dealer produces correlated randomness in the offline phase. The dealer is
// a standard abstraction for semi-honest preprocessing (instantiable with
// OT extension in a deployment); it never sees the parties' inputs.
type Dealer struct {
	rng *rand.Rand
}

// NewDealer creates a dealer with its own randomness.
func NewDealer(seed int64) *Dealer {
	//lint:allow rngdraw dealer randomness is offline-phase preprocessing consumed via Intn, never snapshot-covered; wrapping would not count those draws
	return &Dealer{rng: rand.New(rand.NewSource(seed))}
}

func (d *Dealer) shareBit(v bool) Bit {
	r := d.rng.Intn(2) == 1
	return Bit{S0: r, S1: v != r}
}

// Triple draws one fresh multiplication triple.
func (d *Dealer) Triple() Triple {
	a := d.rng.Intn(2) == 1
	b := d.rng.Intn(2) == 1
	return Triple{A: d.shareBit(a), B: d.shareBit(b), C: d.shareBit(a && b)}
}

// Circuit is a two-party evaluation context: it consumes triples from the
// dealer, tallies gate and communication costs, and records the online
// transcript of opened masked values (which are uniform and thus
// simulatable — the test suite checks this).
type Circuit struct {
	dealer *Dealer

	ANDGates  int
	XORGates  int
	BitsSent  int // online communication, bits across both directions
	Openings  []bool
	maxRecord int
}

// NewCircuit creates an evaluation context. recordLimit bounds the retained
// opening transcript (0 keeps everything; tests use it).
func NewCircuit(dealer *Dealer, recordLimit int) *Circuit {
	return &Circuit{dealer: dealer, maxRecord: recordLimit}
}

// ShareBit secret-shares an input bit using the dealer's randomness (in a
// deployment each party shares its own inputs; the distinction does not
// matter for correctness or cost).
func (c *Circuit) ShareBit(v bool) Bit { return c.dealer.shareBit(v) }

// XOR is a local gate: each party XORs its shares. Free in GMW.
func (c *Circuit) XOR(x, y Bit) Bit {
	c.XORGates++
	return Bit{S0: x.S0 != y.S0, S1: x.S1 != y.S1}
}

// NOT flips the cleartext by having party 0 flip its share. Free.
func (c *Circuit) NOT(x Bit) Bit { return Bit{S0: !x.S0, S1: x.S1} }

// AND evaluates one AND gate with a Beaver triple:
//
//	d = open(x XOR a); e = open(y XOR b)
//	z = c XOR (d AND b) XOR (e AND a) XOR (d AND e)
//
// The openings d and e are masked by the uniform triple components, so the
// online transcript reveals nothing about x and y.
func (c *Circuit) AND(x, y Bit) Bit {
	t := c.dealer.Triple()
	c.ANDGates++
	c.BitsSent += 4 // each party sends its share of d and of e

	d := c.XOR(x, t.A).Open()
	e := c.XOR(y, t.B).Open()
	c.record(d)
	c.record(e)

	z := t.C
	if d {
		z = c.XOR(z, t.B)
	}
	if e {
		z = c.XOR(z, t.A)
	}
	if d && e {
		z = c.NOT(z) // XOR with public constant 1: party 0 flips
	}
	return z
}

func (c *Circuit) record(v bool) {
	if c.maxRecord == 0 || len(c.Openings) < c.maxRecord {
		c.Openings = append(c.Openings, v)
	}
}

// OR via De Morgan: x OR y = NOT(NOT x AND NOT y). One AND gate.
func (c *Circuit) OR(x, y Bit) Bit {
	return c.NOT(c.AND(c.NOT(x), c.NOT(y)))
}

// MUX selects y when sel is 1 and x otherwise: x XOR (sel AND (x XOR y)).
// One AND gate per bit.
func (c *Circuit) MUX(sel, x, y Bit) Bit {
	return c.XOR(x, c.AND(sel, c.XOR(x, y)))
}

// Word is a secret 32-bit value as a little-endian vector of shared bits.
type Word [32]Bit

// ShareWord secret-shares a 32-bit input.
func (c *Circuit) ShareWord(v uint32) Word {
	var w Word
	for i := 0; i < 32; i++ {
		w[i] = c.ShareBit(v>>uint(i)&1 == 1)
	}
	return w
}

// OpenWord reconstructs a word.
func OpenWord(w Word) uint32 {
	var v uint32
	for i := 0; i < 32; i++ {
		if w[i].Open() {
			v |= 1 << uint(i)
		}
	}
	return v
}

// XORWords is the bitwise XOR of two words (free).
func (c *Circuit) XORWords(x, y Word) Word {
	var z Word
	for i := range z {
		z[i] = c.XOR(x[i], y[i])
	}
	return z
}

// Add is a 32-bit ripple-carry adder: 32 full adders, each costing one AND
// gate via the carry recurrence carry' = carry XOR ((x XOR carry) AND
// (y XOR carry)).
func (c *Circuit) Add(x, y Word) Word {
	var z Word
	carry := c.ShareBit(false)
	for i := 0; i < 32; i++ {
		xi, yi := x[i], y[i]
		z[i] = c.XOR(c.XOR(xi, yi), carry)
		xc := c.XOR(xi, carry)
		yc := c.XOR(yi, carry)
		carry = c.XOR(carry, c.AND(xc, yc))
	}
	return z
}

// LessThan compares two unsigned words, returning the shared bit x < y.
// Standard borrow propagation: 32 AND gates plus the final combine.
func (c *Circuit) LessThan(x, y Word) Bit {
	// x < y iff the subtraction x - y borrows. borrow' =
	// (NOT x AND y) OR (borrow AND NOT (x XOR y)), computed per bit.
	borrow := c.ShareBit(false)
	for i := 0; i < 32; i++ {
		nx := c.NOT(x[i])
		t1 := c.AND(nx, y[i])
		eq := c.NOT(c.XOR(x[i], y[i]))
		t2 := c.AND(borrow, eq)
		borrow = c.OR(t1, t2)
	}
	return borrow
}

// Equal tests x == y: NOT(OR of all difference bits).
func (c *Circuit) Equal(x, y Word) Bit {
	diff := c.ShareBit(false)
	for i := 0; i < 32; i++ {
		diff = c.OR(diff, c.XOR(x[i], y[i]))
	}
	return c.NOT(diff)
}

// MUXWords selects between two words with one shared selector bit — the
// conditional-swap half used by oblivious compare-exchange.
func (c *Circuit) MUXWords(sel Bit, x, y Word) Word {
	var z Word
	for i := range z {
		z[i] = c.MUX(sel, x[i], y[i])
	}
	return z
}

// CompareExchange performs the sorting-network comparator over two secret
// words: output (min, max). This is the gate-level realization of what the
// internal/oblivious sort kernel executes logically (a test there pins the
// two to the same outputs, ties included) and what the cost model charges
// per comparator.
func (c *Circuit) CompareExchange(x, y Word) (lo, hi Word) {
	gt := c.LessThan(y, x) // swap needed when x > y
	lo = c.MUXWords(gt, x, y)
	hi = c.MUXWords(gt, y, x)
	return lo, hi
}

// CounterUpdate is the Transform counter step (Alg. 1 lines 4-6) as a real
// circuit: recover-nothing — the counter and the increment stay shared; the
// output is a fresh sharing of c + delta.
func (c *Circuit) CounterUpdate(counter, delta Word) Word {
	return c.Add(counter, delta)
}

// ThresholdCheck is the sDPANT condition (Alg. 3 line 7) as a real circuit:
// returns the shared bit [noisyCount >= noisyThreshold].
func (c *Circuit) ThresholdCheck(noisyCount, noisyThreshold Word) Bit {
	return c.NOT(c.LessThan(noisyCount, noisyThreshold))
}

// Stats summarizes a circuit evaluation.
func (c *Circuit) Stats() string {
	return fmt.Sprintf("gmw.Circuit{and=%d xor=%d bits=%d}", c.ANDGates, c.XORGates, c.BitsSent)
}
