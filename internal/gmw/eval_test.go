package gmw

import (
	"bytes"
	"errors"
	"math"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"incshrink/internal/mpc"
	"incshrink/internal/wire"
)

// tapConn wraps one end of a pair: it keeps a copy of every FrameOpen
// payload the party sends and can rewrite the payloads it receives.
type tapConn struct {
	wire.Conn
	opens  [][]byte
	mangle func(typ byte, payload []byte)
}

func (c *tapConn) Send(typ byte, payload []byte) error {
	if typ == FrameOpen {
		c.opens = append(c.opens, bytes.Clone(payload))
	}
	return c.Conn.Send(typ, payload)
}

func (c *tapConn) Recv() (byte, []byte, error) {
	typ, p, err := c.Conn.Recv()
	if err == nil && c.mangle != nil {
		c.mangle(typ, p)
	}
	return typ, p, err
}

// evalProgram runs every word circuit once over fixed inputs and opens all
// results. Shares are built against fixed masks (both parties pass the same
// masks, as the runtime's re-sharing would arrange).
func evalProgram(x, y uint32) func(e *Eval) []uint32 {
	return func(e *Eval) []uint32 {
		wx := ShareOfWord(e.Role(), x, 0xDEADBEEF)
		wy := ShareOfWord(e.Role(), y, 0x1234ABCD)
		o := &opener{e: e}
		o.word(e.Add(wx, wy))
		o.bit(e.LessThan(wx, wy))
		o.bit(e.Equal(wx, wy))
		lo, hi := e.CompareExchange(wx, wy)
		o.word(lo)
		o.word(hi)
		o.word(e.CounterUpdate(wx, wy))
		o.bit(e.ThresholdCheck(wx, wy))
		return o.outs
	}
}

// evalProgramShape is evalProgram's online schedule, its circuits' round
// shapes concatenated; evalProgramReveals the number of words it opens.
var evalProgramShape = slices.Concat(AddShape, LessThanShape, EqualShape, CompareExchangeShape, AddShape, LessThanShape)

const evalProgramReveals = 7

// plainProgram is evalProgram in the clear.
func plainProgram(x, y uint32) []uint32 {
	return []uint32{x + y, b2u(x < y), b2u(x == y), min(x, y), max(x, y), x + y, b2u(x >= y)}
}

// TestEvalMatchesCircuitOutputs holds every word circuit's opened output to
// the plaintext function, on the edge cases and on a random sweep that adds
// a tie and the two single-bit neighbours of every sample.
func TestEvalMatchesCircuitOutputs(t *testing.T) {
	check := func(x, y uint32) bool {
		r := runPair(t, int64(x)^int64(y)<<7, evalProgramShape.ANDs(), evalProgram(x, y))
		want := plainProgram(x, y)
		if len(r.out) != len(want) {
			t.Fatalf("x=%d y=%d: %d outputs, want %d", x, y, len(r.out), len(want))
		}
		ok := true
		for i := range want {
			if r.out[i] != want[i] {
				t.Errorf("x=%#x y=%#x output %d: opened %d, plaintext %d", x, y, i, r.out[i], want[i])
				ok = false
			}
		}
		if r.e0.TriplesLeft() != 0 || r.e1.TriplesLeft() != 0 {
			t.Errorf("tuple budget: %d and %d left of %d", r.e0.TriplesLeft(), r.e1.TriplesLeft(), evalProgramShape.ANDs())
			ok = false
		}
		return ok
	}
	const top = math.MaxUint32
	cases := [][2]uint32{
		{0, 0}, {1, 1}, {3, 7}, {7, 3}, {top, 1}, {1 << 31, (1 << 31) - 1}, {123456, 123456},
		{top, top}, {0, top}, {top, 0}, {top - 1, top}, {0, 1}, {1, 0}, {0, 1 << 31}, {1 << 31, 0},
	}
	for _, tc := range cases {
		check(tc[0], tc[1])
	}
	sweep := func(x, y uint32) bool {
		return check(x, y) && check(x, x) && check(x, x^1) && check(x^1<<31, x)
	}
	if err := quick.Check(sweep, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestCircuitDepth pins each circuit's AND-gate and round counts, read from
// the evaluator and conn counters, to the literal figures and to the shape
// the package declares for it (which is what party.Predict prices).
func TestCircuitDepth(t *testing.T) {
	bit := func(f func(e *Eval, x, y WordShare) BitShare) func(*Eval, WordShare, WordShare) {
		return func(e *Eval, x, y WordShare) { f(e, x, y) }
	}
	cases := []struct {
		name         string
		shape        Shape
		ands, rounds int
		run          func(e *Eval, x, y WordShare)
	}{
		{"LessThan", LessThanShape, 54, 3, bit((*Eval).LessThan)},
		{"Equal", EqualShape, 11, 3, bit((*Eval).Equal)},
		{"CompareExchange", CompareExchangeShape, 148, 3, func(e *Eval, x, y WordShare) { e.CompareExchange(x, y) }},
		{"ThresholdCheck", LessThanShape, 54, 3, bit((*Eval).ThresholdCheck)},
		{"Add", AddShape, 32, 32, func(e *Eval, x, y WordShare) { e.Add(x, y) }},
	}
	for _, tc := range cases {
		var before wire.Stats
		r := runPair(t, 5, tc.ands, func(e *Eval) []uint32 {
			if e.Role() == 0 {
				before = e.conn.Stats() // after the tuple block
			}
			tc.run(e, ShareOfWord(e.Role(), 21, 0xDEADBEEF), ShareOfWord(e.Role(), 13, 0x1234ABCD))
			return nil
		})
		st := r.c0.Stats().Sub(before)
		if r.e0.ANDGates != tc.ands || r.e1.ANDGates != tc.ands || int(st.Rounds) != tc.rounds {
			t.Errorf("%s: %d/%d AND gates in %d rounds, want %d in %d", tc.name, r.e0.ANDGates, r.e1.ANDGates, st.Rounds, tc.ands, tc.rounds)
		}
		if tc.shape.ANDs() != tc.ands || len(tc.shape) != tc.rounds {
			t.Errorf("%s: declared shape %v is %d ANDs in %d rounds", tc.name, tc.shape, tc.shape.ANDs(), len(tc.shape))
		}
		if want := mpc.PredictOpenRounds(tc.shape); st.Rounds != want.Rounds || st.BytesSent+st.BytesRecv != want.Bytes {
			t.Errorf("%s: measured %d rounds / %d bytes, shape prices %d / %d", tc.name, st.Rounds, st.BytesSent+st.BytesRecv, want.Rounds, want.Bytes)
		}
		if r.e0.TriplesLeft() != 0 {
			t.Errorf("%s: %d tuples left of %d", tc.name, r.e0.TriplesLeft(), tc.ands)
		}
	}
}

func TestEvalOpeningsIdenticalAcrossParties(t *testing.T) {
	r := runPair(t, 42, evalProgramShape.ANDs(), evalProgram(99, 1234))
	if len(r.e0.Openings) != 4*r.e0.ANDGates {
		t.Fatalf("%d openings for %d AND gates", len(r.e0.Openings), r.e0.ANDGates)
	}
	if len(r.e0.Openings) != len(r.e1.Openings) {
		t.Fatalf("transcript lengths differ: %d vs %d", len(r.e0.Openings), len(r.e1.Openings))
	}
	for i := range r.e0.Openings {
		if r.e0.Openings[i] != r.e1.Openings[i] {
			t.Fatalf("opening %d differs between parties", i)
		}
	}
}

// TestEvalOpeningsMasked checks the online transcript is tuple-masked: the
// same inputs under different dealer randomness yield different openings
// (the transcript depends on the masks, not the data).
func TestEvalOpeningsMasked(t *testing.T) {
	a := runPair(t, 1, evalProgramShape.ANDs(), evalProgram(5, 9)).e0.Openings
	b := runPair(t, 2, evalProgramShape.ANDs(), evalProgram(5, 9)).e0.Openings
	same := len(a) == len(b)
	for i := 0; same && i < len(a); i++ {
		same = a[i] == b[i]
	}
	if same {
		t.Fatal("openings identical under different tuple randomness — transcript is not masked")
	}
}

// TestEvalWireAccounting pins the wire shape of the GMW online phase to the
// closed form: one ⌈4k/8⌉-byte frame per party per k-lane round, one 4-byte
// frame per reveal, one tuple block frame of TupleBytes per tuple in the
// offline phase.
func TestEvalWireAccounting(t *testing.T) {
	r := runPair(t, 3, evalProgramShape.ANDs(), evalProgram(21, 13))
	// Each reveal is a one-word exchange.
	want := mpc.PredictExchanges(slices.Repeat([]int{1}, evalProgramReveals)...)
	open := mpc.PredictOpenRounds(evalProgramShape)
	want.Rounds += open.Rounds
	want.Bytes += open.Bytes
	block := uint64(wire.FrameOverhead + TupleBytes*evalProgramShape.ANDs())
	st := r.c0.Stats()
	if st.BytesSent != want.Bytes/2+block {
		t.Errorf("role 0 bytes sent = %d, want %d", st.BytesSent, want.Bytes/2+block)
	}
	if st.BytesRecv != want.Bytes/2 {
		t.Errorf("role 0 bytes recv = %d, want %d", st.BytesRecv, want.Bytes/2)
	}
	// Every AND round and every reveal is one send-then-recv: one round each.
	if st.Rounds != want.Rounds || want.Rounds != 76+evalProgramReveals {
		t.Errorf("role 0 rounds = %d, predicted %d, want %d", st.Rounds, want.Rounds, 76+evalProgramReveals)
	}
	if st1 := r.c1.Stats(); st1.Rounds != st.Rounds || st1.BytesSent != st.BytesRecv || st1.BytesRecv != st.BytesSent {
		t.Errorf("role 1 counters %+v do not mirror role 0's %+v", st1, st)
	}
}

// TestEvalTriplePoolExhaustion: a k-lane round that the pool cannot cover is
// refused whole — no frame sent, no tuple consumed — and the error sticks.
func TestEvalTriplePoolExhaustion(t *testing.T) {
	c0, c1 := wire.Loopback(256)
	defer c0.Close()
	defer c1.Close()
	var sentBefore [2]uint64
	r := evalPair(t, c0, c1, 9, 10, 0, func(e *Eval) []uint32 {
		e.and(vec{}, vec{}, vec{}, vec{}, 4)
		e.and(vec{}, vec{}, vec{}, vec{}, 4)
		sentBefore[e.Role()] = e.conn.Stats().FramesSent
		e.and(vec{}, vec{}, vec{}, vec{}, 4) // two tuples left
		e.AND(0, 0)                          // would fit, but the error is sticky
		o := &opener{e: e}
		o.word(0)
		return o.outs
	})
	for role, e := range []*Eval{r.e0, r.e1} {
		if !errors.Is(e.Err(), ErrNoTriples) {
			t.Fatalf("role %d: err = %v, want ErrNoTriples", role, e.Err())
		}
		if e.TriplesLeft() != 2 || e.ANDGates != 8 {
			t.Errorf("role %d: %d tuples left after %d gates, want 2 after 8", role, e.TriplesLeft(), e.ANDGates)
		}
		if got := e.conn.Stats().FramesSent; got != sentBefore[role] {
			t.Errorf("role %d: sent %d frames after the refused round", role, got-sentBefore[role])
		}
		if _, err := e.OpenWord(0); !errors.Is(err, ErrNoTriples) {
			t.Errorf("role %d: OpenWord after exhaustion: %v", role, err)
		}
	}
	if len(r.out) != 0 {
		t.Errorf("opened %d words after exhaustion", len(r.out))
	}
}

// TestTriplesConsumedOnce: n gates issued through any mix of lane widths,
// one- and two-word rounds among them, consume exactly the pool's first n
// positions, in order, each once — a tuple reused across lanes or rounds
// would let the two openings that share it cancel its mask. With all-zero
// inputs the opened (δx, δy, δz, δw) of a gate are the (a, b, c, d) of the
// tuple it used, so the transcript names the positions; and each round's
// tuple words, read back from both pools, carry all fifteen components of
// exactly those positions.
func TestTriplesConsumedOnce(t *testing.T) {
	widths := []int{1, 7, 64, 32, 3, 1, 63, 8, 33, 96, 128, 65, 2}
	n := 0
	for _, k := range widths {
		n += k
	}
	const seed = 77
	r := runPair(t, seed, n, func(e *Eval) []uint32 {
		for _, k := range widths {
			left := e.TriplesLeft()
			z := e.and(vec{}, vec{}, vec{}, vec{}, k)
			if m := laneMask(k); z[0]&^m[0] != 0 || z[1]&^m[1] != 0 {
				t.Errorf("width %d: output %#x has bits beyond its lanes", k, z)
			}
			if got := left - e.TriplesLeft(); got != k {
				t.Errorf("width %d consumed %d tuples", k, got)
			}
		}
		return nil
	})
	if r.e0.TriplesLeft() != 0 || r.e0.ANDGates != n {
		t.Fatalf("%d gates left %d of %d tuples", r.e0.ANDGates, r.e0.TriplesLeft(), n)
	}
	twin := NewDealer(seed)
	at := 0
	for _, k := range widths {
		for lane := 0; lane < k; lane++ {
			tu := twin.Tuple()
			for j := range 4 {
				if r.e0.Openings[at+j*k+lane] != tu.bit(1<<j).Open() {
					t.Fatalf("width %d lane %d did not use pool position %d", k, lane, at/4+lane)
				}
			}
		}
		at += 4 * k
	}

	c0, c1 := wire.Loopback(4)
	defer c0.Close()
	evs := [2]*Eval{NewEval(0, c0, 0), NewEval(1, c1, 0)}
	if err := evs[0].DealTriples(NewDealer(seed), n); err != nil {
		t.Fatal(err)
	}
	if err := evs[1].RecvTriples(); err != nil {
		t.Fatal(err)
	}
	twin = NewDealer(seed)
	for _, k := range widths {
		words := [2][16]vec{evs[0].take(k), evs[1].take(k)}
		for lane := 0; lane < k; lane++ {
			tu := twin.Tuple()
			h := [2]uint16{tu.S0, tu.S1}
			for role := range words {
				for s := 1; s < 16; s++ {
					if got := words[role][s][lane/64] >> uint(lane%64) & 1; got != uint64(h[role]>>uint(s-1)&1) {
						t.Fatalf("width %d lane %d role %d: component %04b reads %d, position %d holds %015b", k, lane, role, s, got, evs[0].next-k+lane, h[role])
					}
				}
			}
		}
	}
}

// TestOpenPadding: the padding bits of an opening's last byte go out as zero
// and are ignored coming in — a peer that sets them changes nothing. Every
// odd width pads: k = 1 is 4 bits and 4 of padding, k = 127 is 508 bits
// over 64 bytes.
func TestOpenPadding(t *testing.T) {
	widths := []int{1, 3, 4, 5, 13, 60, 64, 65, 96, 127, 128}
	program := func(e *Eval) []uint32 {
		var outs []uint32
		role := uint(e.Role())
		for _, k := range widths {
			z := e.and(vec{0x0123456789ABCDEF, 0xFEDCBA9876543210}, vec{0xFFFF0000FFFF0000 >> role, 0x00FF00FF00FF00FF << role},
				vec{0xF0F0F0F0F0F0F0F0 << role, 0x3333CCCC3333CCCC >> role}, vec{0xAAAAAAAA55555555 >> role, 0x5A5A5A5AA5A5A5A5 << role}, k)
			outs = append(outs, uint32(z[0]), uint32(z[0]>>32), uint32(z[1]), uint32(z[1]>>32))
		}
		// The output shares differ per role; open them pairwise.
		o := &opener{e: e}
		for _, v := range outs {
			o.word(WordShare(v))
		}
		return o.outs
	}
	n := 0
	for _, k := range widths {
		n += k
	}
	clean := runPair(t, 4, n, program)

	c0, c1 := wire.Loopback(256)
	defer c0.Close()
	defer c1.Close()
	round := 0
	tap := &tapConn{Conn: c0, mangle: func(typ byte, p []byte) {
		if typ != FrameOpen {
			return
		}
		if pad := 8*len(p) - 4*widths[round]; pad > 0 {
			p[len(p)-1] |= 0xFF << uint(8-pad)
		}
		round++
	}}
	dirty := evalPair(t, tap, c1, 4, n, 0, program)
	if dirty.e0.Err() != nil || dirty.e1.Err() != nil {
		t.Fatalf("evaluation errors: role0=%v role1=%v", dirty.e0.Err(), dirty.e1.Err())
	}
	if round != len(widths) {
		t.Fatalf("mangled %d open frames, want %d", round, len(widths))
	}
	for i := range clean.out {
		if clean.out[i] != dirty.out[i] {
			t.Errorf("output %d: %#x with padding set, %#x without", i, dirty.out[i], clean.out[i])
		}
	}
	for i, k := range widths {
		p := tap.opens[i]
		if len(p) != (4*k+7)/8 {
			t.Fatalf("width %d: %d-byte opening", k, len(p))
		}
		if pad := 8*len(p) - 4*k; pad > 0 && p[len(p)-1]>>uint(8-pad) != 0 {
			t.Errorf("width %d: padding bits sent as %#x", k, p[len(p)-1]>>uint(8-pad))
		}
	}
}

// TestHostileFrames: a peer that answers a protocol step with the wrong
// frame — wrong type, wrong length, a tuple block mid-circuit — ends the
// evaluation in a typed, sticky error: nothing further is sent (no desync),
// nothing panics, and every later call reports the same error. The
// comparator's first round is 42 lanes, a 21-byte opening.
func TestHostileFrames(t *testing.T) {
	// script plays the peer: it swallows `swallow` frames, then sends one.
	cases := []struct {
		name    string
		typ     byte
		payload []byte
		swallow int
		run     func(e *Eval)
		sent    uint64 // frames the party may have sent when the error lands
	}{
		{"open: wrong type", FrameReveal, make([]byte, 21), 2, nil, 2},
		{"open: one byte short", FrameOpen, make([]byte, 20), 2, nil, 2},
		{"open: one byte long", FrameOpen, make([]byte, 22), 2, nil, 2},
		{"open: empty", FrameOpen, nil, 2, nil, 2},
		{"open: triple block mid-circuit", FrameTriples, make([]byte, 21), 2, nil, 2},
		{"open: two-input length", FrameOpen, make([]byte, 11), 2, nil, 2}, // ⌈2·42/8⌉
		{"open: fan-in-3 length", FrameOpen, make([]byte, 16), 2, nil, 2},  // ⌈3·42/8⌉
		{"open k=1: two bytes", FrameOpen, make([]byte, 2), 2, func(e *Eval) { e.and(vec{1}, vec{1}, vec{1}, vec{1}, 1) }, 2},
		{"open k=3: two-input length", FrameOpen, make([]byte, 1), 2, func(e *Eval) { e.and(vec{7}, vec{7}, vec{7}, vec{7}, 3) }, 2}, // 12 bits need 2 bytes
		{"open k=96: cut at the 8-byte boundary", FrameOpen, make([]byte, 40), 2, func(e *Eval) { e.and(e.ones, e.ones, e.ones, e.ones, 96) }, 2},
		{"reveal: short", FrameReveal, make([]byte, 3), 2, func(e *Eval) { _, _ = e.OpenWord(5) }, 2},
		{"reveal: open frame", FrameOpen, make([]byte, 4), 2, func(e *Eval) { _, _ = e.OpenWord(5) }, 2},
		{"reveal: one word of four", FrameReveal, make([]byte, 4), 2, func(e *Eval) { _ = e.OpenWords([]WordShare{1, 2, 3, 4}, make([]uint32, 4)) }, 2},
		{"triples: reveal frame", FrameReveal, make([]byte, 4), 0, func(e *Eval) { _ = e.RecvTriples() }, 1},
		{"triples: half a tuple", FrameTriples, make([]byte, 2*TupleBytes+1), 0, func(e *Eval) { _ = e.RecvTriples() }, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c0, c1 := wire.Loopback(8)
			defer c0.Close()
			defer c1.Close()
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < tc.swallow; i++ {
					if _, _, err := c1.Recv(); err != nil {
						t.Errorf("peer recv: %v", err)
						return
					}
				}
				if err := c1.Send(tc.typ, tc.payload); err != nil {
					t.Errorf("peer send: %v", err)
				}
			}()
			e := NewEval(0, c0, 0)
			if err := e.DealTriples(NewDealer(1), CompareExchangeShape.ANDs()); err != nil {
				t.Fatal(err)
			}
			x, y := ShareOfWord(0, 5, 1), ShareOfWord(0, 9, 2)
			if tc.run != nil {
				tc.run(e)
			} else {
				e.CompareExchange(x, y)
			}
			wg.Wait()
			if !errors.Is(e.Err(), ErrBadFrame) {
				t.Fatalf("err = %v, want ErrBadFrame", e.Err())
			}
			first := e.Err()
			// Sticky: every entry point keeps reporting it and stays silent.
			e.CompareExchange(x, y)
			if _, err := e.OpenWord(x); !errors.Is(err, ErrBadFrame) {
				t.Errorf("OpenWord after the bad frame: %v", err)
			}
			if err := e.RecvTriples(); !errors.Is(err, ErrBadFrame) {
				t.Errorf("RecvTriples after the bad frame: %v", err)
			}
			if err := e.DealTriples(NewDealer(2), 4); !errors.Is(err, ErrBadFrame) {
				t.Errorf("DealTriples after the bad frame: %v", err)
			}
			if e.Err() != first {
				t.Errorf("sticky error replaced: %v then %v", first, e.Err())
			}
			if got := c0.Stats().FramesSent; got != tc.sent {
				t.Errorf("party sent %d frames, want %d (nothing after the bad frame)", got, tc.sent)
			}
		})
	}
}
