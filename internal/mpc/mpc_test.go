package mpc

import (
	"bytes"
	"crypto/sha256"
	"crypto/sha512"
	"encoding"
	"errors"
	"math"
	"slices"
	"sync"
	"testing"

	"incshrink/internal/secretshare"
	"incshrink/internal/snapshot"
	"incshrink/internal/wire"
)

func TestSortCompareExchangesSmall(t *testing.T) {
	// Known Batcher odd-even mergesort network sizes for powers of two:
	// n=2: 1, n=4: 5, n=8: 19, n=16: 63.
	want := map[int]int{0: 0, 1: 0, 2: 1, 4: 5, 8: 19, 16: 63}
	for n, w := range want {
		if got := SortCompareExchanges(n); got != w {
			t.Errorf("SortCompareExchanges(%d) = %d, want %d", n, got, w)
		}
	}
}

// countingWalk is the reference for SortCompareExchanges: the textbook
// iterative odd-even merge sort on the next power of two, counting every
// comparator that stays inside its 2p block — the walk the closed form
// replaced.
func countingWalk(n int) int {
	p2 := 1
	for p2 < n {
		p2 <<= 1
	}
	count := 0
	for p := 1; p < p2; p <<= 1 {
		for k := p; k >= 1; k >>= 1 {
			for j := k % p; j <= p2-1-k; j += 2 * k {
				for i := 0; i <= k-1; i++ {
					if (i+j)/(p*2) == (i+j+k)/(p*2) {
						count++
					}
				}
			}
		}
	}
	return count
}

// TestSortCompareExchangesClosedForm: the closed form equals the counting
// walk at every power of two through 2^14, at lengths between them, and
// above 65,536 — where the walk (70 ms at 65,537) used to run on every
// ChargeSort because no cache held such lengths. A charge allocates nothing.
func TestSortCompareExchangesClosedForm(t *testing.T) {
	sizes := []int{0, 1, 2, 3, 5, 1040, 65537, 1 << 20}
	for k := 1; k <= 14; k++ {
		sizes = append(sizes, 1<<k)
	}
	for _, n := range sizes {
		if got, want := SortCompareExchanges(n), countingWalk(n); got != want {
			t.Errorf("SortCompareExchanges(%d) = %d, counting walk %d", n, got, want)
		}
	}
	m := NewMeter(DefaultCostModel())
	if allocs := testing.AllocsPerRun(100, func() { m.ChargeSort(OpShrink, 65537, 64) }); allocs != 0 {
		t.Errorf("ChargeSort allocates %v times per call", allocs)
	}
}

func TestSortCompareExchangesGrowth(t *testing.T) {
	// Network size must be monotone in padded size and Theta(n log^2 n).
	prev := 0
	for _, n := range []int{2, 4, 8, 16, 32, 64, 128, 256, 1024} {
		ce := SortCompareExchanges(n)
		if ce < prev {
			t.Errorf("network size decreased at n=%d", n)
		}
		prev = ce
	}
	lg := math.Log2(4096)
	r := float64(SortCompareExchanges(4096)) / (4096 * lg * lg / 4)
	if r < 0.5 || r > 4 {
		t.Errorf("n log^2 n ratio = %v out of constant-factor range", r)
	}
}

func TestMeterCharging(t *testing.T) {
	m := NewMeter(DefaultCostModel())
	m.ChargeSort(OpShrink, 8, 64)
	wantGates := float64(19) * 64 * 3
	if got := m.Gates(OpShrink); got != wantGates {
		t.Errorf("sort gates = %v want %v", got, wantGates)
	}
	m.ChargeScan(OpQuery, 100, 64)
	if got := m.Gates(OpQuery); got != 100*64*2 {
		t.Errorf("scan gates = %v", got)
	}
	// A merge of runs of 936 and 104 is the last phase on 2,048 wires; an
	// order-preserving compaction of 1,040 slots is 11 levels of moves.
	m.ChargeMerge(OpTransform, 936, 104, 64)
	if got := m.Gates(OpTransform); got != 10241*64*3 {
		t.Errorf("merge gates = %v", got)
	}
	m.ChargeScan(OpTransform, CompactMoves(1040), 64)
	if got := m.Gates(OpTransform); got != 10241*64*3+11440*64*2 {
		t.Errorf("merge + compaction gates = %v", got)
	}
	m.ChargeLaplace(OpShrink)
	if got := m.Gates(OpShrink); got != wantGates+20000 {
		t.Errorf("laplace charge missing: %v", got)
	}
	if m.Seconds(OpQuery) != m.Gates(OpQuery)/m.Model().GatesPerSecond {
		t.Error("seconds conversion wrong")
	}
}

// TestMergeCompareExchangesClosedForm: a merge is charged the last phase of
// the network on twice the power of two covering its longer run — what is
// left of SortCompareExchanges once both halves are sorted — and nothing
// when a run is empty; a compaction is charged n * ceil(log2 n) moves.
func TestMergeCompareExchangesClosedForm(t *testing.T) {
	for lp := 0; lp <= 14; lp++ {
		P := 1 << lp
		want := SortCompareExchanges(2*P) - 2*SortCompareExchanges(P)
		for _, mf := range [][2]int{{P, P}, {P, 1}, {1, P}, {P/2 + 1, P/2 + 1}} {
			if got := MergeCompareExchanges(mf[0], mf[1]); got != want {
				t.Errorf("MergeCompareExchanges(%d, %d) = %d, want the last phase on %d wires, %d", mf[0], mf[1], got, 2*P, want)
			}
		}
	}
	if MergeCompareExchanges(0, 9) != 0 || MergeCompareExchanges(9, 0) != 0 {
		t.Error("merging with an empty run must be free")
	}
	for n, want := range map[int]int{0: 0, 1: 0, 2: 2, 3: 6, 1024: 10240, 1040: 11440} {
		if got := CompactMoves(n); got != want {
			t.Errorf("CompactMoves(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestMeterInvalidOpGoesToOther(t *testing.T) {
	m := NewMeter(DefaultCostModel())
	m.ChargeGates(Op(99), 10)
	if m.Gates(OpOther) != 10 {
		t.Error("invalid op not routed to Other")
	}
}

func TestOpString(t *testing.T) {
	if OpTransform.String() != "Transform" || OpShrink.String() != "Shrink" ||
		OpQuery.String() != "Query" || OpOther.String() != "Other" {
		t.Error("Op.String() wrong")
	}
}

func TestRuntimeShareRecoverInside(t *testing.T) {
	r := NewRuntime(DefaultCostModel(), 7)
	r.SetTime(5)
	r.ShareToServers("c", 12345)
	got, err := r.RecoverInside("c")
	if err != nil {
		t.Fatal(err)
	}
	if got != 12345 {
		t.Errorf("recovered %d want 12345", got)
	}
	if _, err := r.RecoverInside("missing"); err == nil {
		t.Error("missing key should error")
	}
}

// TestTranscriptContainsOnlySimulatableEvents: after a share+recover cycle,
// each server's transcript must contain only its random contributions and a
// uniformly distributed share — never the secret itself in any systematic
// position. We re-share the same secret many times and check the stored
// share's top-nibble histogram is flat.
func TestTranscriptSharesUniform(t *testing.T) {
	r := NewRuntime(DefaultCostModel(), 8)
	const n = 16384
	hist := make([]int, 16)
	for i := 0; i < n; i++ {
		r.ShareToServers("c", 0xABCD1234)
		s, _ := r.Party(Server1).LoadShare("c")
		hist[s>>28]++
	}
	exp := n / 16
	for b, h := range hist {
		if h < exp*7/10 || h > exp*13/10 {
			t.Fatalf("bucket %d count %d far from uniform %d", b, h, exp)
		}
	}
}

// jointRandomWord runs a round of one joint random word (Alg. 2:4-5) and
// returns the word.
func jointRandomWord(t *testing.T, r *Runtime, label string) uint32 {
	t.Helper()
	rd := r.Round()
	i := rd.joint(label)
	if err := rd.Exchange(); err != nil {
		t.Fatal(err)
	}
	return rd.jointWord(i)
}

func TestJointRandomWordUsesBothParties(t *testing.T) {
	r, tr0, tr1 := recordedRuntime(9)
	r.SetTime(1)
	w := jointRandomWord(t, r, "test")
	// Each party must have exactly one random contribution whose XOR is w.
	ev0, ev1 := tr0.Events, tr1.Events
	if len(ev0) != 1 || len(ev1) != 1 {
		t.Fatalf("contributions: %d and %d events", len(ev0), len(ev1))
	}
	if ev0[0].Kind != EvRandomContributed || ev1[0].Kind != EvRandomContributed {
		t.Fatal("wrong event kinds")
	}
	if ev0[0].Share^ev1[0].Share != w {
		t.Error("joint word is not the XOR of the contributions")
	}
}

func TestJointLaplaceDistribution(t *testing.T) {
	r := NewRuntime(DefaultCostModel(), 10)
	const n = 100000
	scale := 4.0
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.JointLaplace(scale, OpShrink)
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.1*scale {
		t.Errorf("mean %v not near 0", mean)
	}
	if want := 2 * scale * scale; math.Abs(variance-want) > 0.1*want {
		t.Errorf("variance %v want about %v", variance, want)
	}
	if got, want := r.Meter.Gates(OpShrink), n*r.Meter.Model().ANDGatesPerLaplace; got != want {
		t.Errorf("%d draws charged %v gates, want %v", n, got, want)
	}
}

func TestObserveEventsAppearInBothTranscripts(t *testing.T) {
	r, tr0, tr1 := recordedRuntime(11)
	r.SetTime(3)
	r.ObserveBatch(40, "transform")
	r.ObserveFetch(7, "shrink")
	r.ObserveFlush(15, "flush")
	for _, tr := range []*Transcript{tr0, tr1} {
		if got := tr.SizesOf(EvBatchObserved); len(got) != 1 || got[0] != 40 {
			t.Errorf("%v batch sizes = %v", tr.Party, got)
		}
		if got := tr.SizesOf(EvFetchObserved); len(got) != 1 || got[0] != 7 {
			t.Errorf("%v fetch sizes = %v", tr.Party, got)
		}
		if got := tr.SizesOf(EvFlushObserved); len(got) != 1 || got[0] != 15 {
			t.Errorf("%v flush sizes = %v", tr.Party, got)
		}
	}
}

// recordedRuntime builds a runtime whose parties record their transcripts
// from the first event.
func recordedRuntime(seed int64) (r *Runtime, tr0, tr1 *Transcript) {
	r = NewRuntime(DefaultCostModel(), seed)
	tr0, tr1 = new(Transcript), new(Transcript)
	r.Party(Server0).Record(tr0)
	r.Party(Server1).Record(tr1)
	return r, tr0, tr1
}

// hashEvents is the digest the event log used to be reduced to: SHA-256
// over every event in the encoding Party.observe hashes.
func hashEvents(events []Event) [sha256.Size]byte {
	var b []byte
	for _, ev := range events {
		b = appendEvent(b, ev)
	}
	return sha256.Sum256(b)
}

// TestRunningDigestEqualsHashOfRecordedEvents: the party's running digest
// and event count must equal SHA-256 over, and the length of, the full list
// of events a recorder attached from construction saw — at every point of a
// run of share / recover / joint-Laplace / observe steps, and across a
// snapshot round trip into a fresh runtime taken mid-run (the digest
// resumes; the recorder, which is not state, keeps collecting).
func TestRunningDigestEqualsHashOfRecordedEvents(t *testing.T) {
	r, tr0, tr1 := recordedRuntime(12)
	check := func(when string) {
		t.Helper()
		for _, c := range []struct {
			p  *Party
			tr *Transcript
		}{{r.Party(Server0), tr0}, {r.Party(Server1), tr1}} {
			if got, want := c.p.TranscriptDigest(), hashEvents(c.tr.Events); got != want {
				t.Fatalf("%s: %v running digest %x, recorded events hash to %x", when, c.p.ID, got, want)
			}
			if got, want := c.p.EventCount(), uint64(len(c.tr.Events)); got != want {
				t.Fatalf("%s: %v counted %d events, recorded %d", when, c.p.ID, got, want)
			}
		}
	}
	step := func(r *Runtime, i int) {
		r.SetTime(i)
		r.ShareToServers("c", uint32(i)*2654435761)
		if _, err := r.RecoverInside("c"); err != nil {
			t.Fatal(err)
		}
		r.JointLaplace(2.5, OpShrink)
		r.ObserveBatch(8, "transform")
		if i%3 == 2 {
			r.ObserveFetch(i%13, "shrink")
		}
		if i%5 == 4 {
			r.ObserveFlush(4, "flush")
		}
	}
	check("fresh")
	for i := 0; i < 20; i++ {
		step(r, i)
		check("before the round trip")
	}
	if tr0.Events[len(tr0.Events)-1].WireRounds == 0 {
		t.Fatal("events carry no wire stamps; the digest comparison would not cover them")
	}

	st := encodeSection(t, r.EncodeState)
	r = NewRuntime(DefaultCostModel(), 12)
	r.Party(Server0).Record(tr0)
	r.Party(Server1).Record(tr1)
	if err := decodeSection(st, r.DecodeState); err != nil {
		t.Fatal(err)
	}
	check("restored")
	for i := 20; i < 40; i++ {
		step(r, i)
		check("after the round trip")
	}

	// The restored run is the uninterrupted run.
	ref := NewRuntime(DefaultCostModel(), 12)
	for i := 0; i < 40; i++ {
		step(ref, i)
	}
	if ref.Party(Server0).TranscriptDigest() != r.Party(Server0).TranscriptDigest() || ref.Party(Server1).TranscriptDigest() != r.Party(Server1).TranscriptDigest() {
		t.Error("restored run's digests differ from an uninterrupted run's")
	}
}

// encodeSection writes one section into a snapshot stream.
func encodeSection(t *testing.T, write func(*snapshot.Encoder)) []byte {
	t.Helper()
	var buf bytes.Buffer
	e := snapshot.NewEncoder(&buf)
	write(e)
	if err := e.Finish(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// decodeSection reads one section from a stream encodeSection wrote.
func decodeSection(data []byte, read func(*snapshot.Decoder)) error {
	d := snapshot.NewDecoder(bytes.NewReader(data))
	read(d)
	if err := d.Err(); err != nil {
		return err
	}
	return d.Finish()
}

// TestDecodeStateRefusesBadDigestState: a party section whose hash state
// does not unmarshal, or whose draw position is past the resumable bound, is
// ErrCorrupt and leaves the party as it was — never a silently fresh digest
// or stream. The encoder refuses to write such a digest, so a checkpoint
// fails at once rather than at the next boot (the stream's own refusal past
// the bound is dp's TestStreamRefusesPositionPastBound).
func TestDecodeStateRefusesBadDigestState(t *testing.T) {
	r := NewRuntime(DefaultCostModel(), 13)
	r.ObserveBatch(8, "transform")
	s0 := r.Party(Server0)
	before := s0.TranscriptDigest()
	state, _ := s0.digest.(encoding.BinaryMarshaler).MarshalBinary()
	if len(state) != digestStateLen {
		t.Fatalf("marshaled digest state is %d bytes, digestStateLen = %d", len(state), digestStateLen)
	}
	// section writes a party section field by field, as encodeState does.
	section := func(draws uint64, digest []byte) []byte {
		return encodeSection(t, func(e *snapshot.Encoder) {
			e.U64(draws)
			e.U32(0)
			e.String(string(digest))
			e.U64(1)
			e.U64(0)
			e.U64(0)
		})
	}
	if err := decodeSection(section(0, state), s0.decodeState); err != nil {
		t.Fatalf("the undamaged section: %v", err)
	}
	for name, data := range map[string][]byte{
		"short digest":     section(0, state[:len(state)-1]),
		"long digest":      section(0, append(slices.Clone(state), 0)),
		"empty digest":     section(0, nil),
		"bad digest magic": section(0, append([]byte{state[0] ^ 0xff}, state[1:]...)),
		"draws past bound": section(math.MaxUint64, state),
	} {
		if err := decodeSection(data, s0.decodeState); !errors.Is(err, snapshot.ErrCorrupt) {
			t.Errorf("%s: decode error %v, want ErrCorrupt", name, err)
		}
		if s0.TranscriptDigest() != before || s0.EventCount() != 1 {
			t.Errorf("%s changed the party", name)
		}
	}

	p := NewParty(Server0, 1)
	p.digest = sha512.New()
	var buf bytes.Buffer
	e := snapshot.NewEncoder(&buf)
	p.encodeState(e)
	if e.Finish() == nil {
		t.Error("foreign digest: encoded a party section a restore would refuse")
	}
}

func TestEventKindString(t *testing.T) {
	kinds := []EventKind{EvShareReceived, EvBatchObserved, EvFetchObserved, EvFlushObserved, EvRandomContributed, EventKind(99)}
	want := []string{"share", "batch", "fetch", "flush", "random", "unknown"}
	for i, k := range kinds {
		if k.String() != want[i] {
			t.Errorf("kind %d string = %q want %q", i, k.String(), want[i])
		}
	}
	if Server0.String() != "S0" || Server1.String() != "S1" {
		t.Error("PartyID string wrong")
	}
}

func TestRuntimeDeterministicAcrossSeeds(t *testing.T) {
	a := NewRuntime(DefaultCostModel(), 42)
	b := NewRuntime(DefaultCostModel(), 42)
	for i := 0; i < 100; i++ {
		if jointRandomWord(t, a, "x") != jointRandomWord(t, b, "x") {
			t.Fatal("same seed produced different joint words")
		}
	}
	c := NewRuntime(DefaultCostModel(), 43)
	same := true
	for i := 0; i < 100; i++ {
		if jointRandomWord(t, a, "x") != jointRandomWord(t, c, "x") {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
}

// TestRoundShipsOneFrame: a round of w words is one frame of 4·w bytes each
// way — one round, 2·(5 + 4·w) bytes per party — and its results are what
// the same primitives give one word per round.
func TestRoundShipsOneFrame(t *testing.T) {
	r := NewRuntime(DefaultCostModel(), 15)
	ref := NewRuntime(DefaultCostModel(), 15)
	r.ShareToServers("c", 7)
	ref.ShareToServers("c", 7)
	p := r.WireProbe()
	rd := r.Round()
	cw, nw, sw := rd.Recover("c"), rd.Noise(), rd.Reshare("c")
	if err := rd.Exchange(); err != nil {
		t.Fatal(err)
	}
	if rounds, words, bytes := p.Delta(r); rounds != 1 || words != 4 || bytes != 2*(5+4*4) {
		t.Errorf("4-word round moved %d rounds, %d words, %d bytes; want 1, 4, 42", rounds, words, bytes)
	}
	c := rd.Recovered(cw)
	noise := rd.Laplace(nw, 2.5, OpShrink)
	rd.Share(sw, c+1)
	refC, _ := ref.RecoverInside("c")
	refNoise := ref.JointLaplace(2.5, OpShrink)
	ref.ShareToServers("c", refC+1)
	if c != refC || noise != refNoise {
		t.Errorf("grouped round recovered %d, drew %v; one word per round %d, %v", c, noise, refC, refNoise)
	}
	for _, pair := range [][2]*Party{{r.Party(Server0), ref.Party(Server0)}, {r.Party(Server1), ref.Party(Server1)}} {
		a, _ := pair[0].LoadShare("c")
		b, _ := pair[1].LoadShare("c")
		if a != b || pair[0].rng.Draws() != pair[1].rng.Draws() || pair[0].EventCount() != pair[1].EventCount() {
			t.Errorf("%v: share %d after %d draws and %d events, one word per round %d after %d and %d",
				pair[0].ID, a, pair[0].rng.Draws(), pair[0].EventCount(), b, pair[1].rng.Draws(), pair[1].EventCount())
		}
	}
}

// TestBadRoundSendsNothing: a round naming a share no party stores fails
// before any word is drawn or sent — on the in-process runtime and on a
// standalone party alike, both connections' counters, the wire tallies and
// the randomness positions stay where they were, and the runtime goes on.
func TestBadRoundSendsNothing(t *testing.T) {
	r := NewRuntime(DefaultCostModel(), 14)
	r.ShareToServers("c", 3)
	s0, s1 := r.Party(Server0), r.Party(Server1)
	conns := [2]wire.Stats{s0.conn.Stats(), s1.conn.Stats()}
	rounds, bytes := r.WireTally()
	draws := [2]uint64{s0.rng.Draws(), s1.rng.Draws()}
	rd := r.Round()
	rd.Reshare("c")
	rd.Noise()
	rd.Recover("missing")
	if err := rd.Exchange(); err == nil {
		t.Fatal("a round recovering a missing key succeeded")
	}
	if got := [2]wire.Stats{s0.conn.Stats(), s1.conn.Stats()}; got != conns {
		t.Errorf("conn counters moved: %+v, before %+v", got, conns)
	}
	if nr, nb := r.WireTally(); nr != rounds || nb != bytes {
		t.Errorf("wire tally moved to %d/%d from %d/%d", nr, nb, rounds, bytes)
	}
	if got := [2]uint64{s0.rng.Draws(), s1.rng.Draws()}; got != draws {
		t.Errorf("draws moved to %v from %v", got, draws)
	}
	if v, err := r.RecoverInside("c"); err != nil || v != 3 {
		t.Errorf("after the bad round: recovered %d, %v; want 3", v, err)
	}

	c0, c1 := wire.Loopback(4)
	defer c0.Close()
	defer c1.Close()
	pr := NewPartyRuntime(Server0, 14, DefaultCostModel(), c0)
	rd = pr.Round()
	rd.Noise()
	rd.Recover("missing")
	if err := rd.Exchange(); err == nil {
		t.Fatal("a standalone round recovering a missing key succeeded")
	}
	if c0.Stats() != (wire.Stats{}) || c1.Stats() != (wire.Stats{}) {
		t.Errorf("conn counters moved: %+v, %+v", c0.Stats(), c1.Stats())
	}
	if nr, nb := pr.WireTally(); nr != 0 || nb != 0 || pr.Party(Server0).rng.Draws() != 0 {
		t.Errorf("standalone party: tally %d/%d and %d draws after a refused round", nr, nb, pr.Party(Server0).rng.Draws())
	}
}

// TestHostileFrames: a peer that answers a round with the wrong frame — the
// wrong type, or a word count other than the round's — ends the round in
// ErrBadFrame, not a panic, after this party sent its one frame.
func TestHostileFrames(t *testing.T) {
	cases := []struct {
		name    string
		typ     byte
		payload []byte
		words   int
	}{
		{"wrong type", FrameWord + 1, make([]byte, 12), 3},
		{"one word short", FrameWord, make([]byte, 8), 3},
		{"one word long", FrameWord, make([]byte, 16), 3},
		{"one byte short", FrameWord, make([]byte, 3), 1},
		{"one byte long", FrameWord, make([]byte, 5), 1},
		{"empty", FrameWord, nil, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c0, c1 := wire.Loopback(4)
			defer c0.Close()
			defer c1.Close()
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, _, err := c1.Recv(); err != nil {
					t.Errorf("peer recv: %v", err)
					return
				}
				if err := c1.Send(tc.typ, tc.payload); err != nil {
					t.Errorf("peer send: %v", err)
				}
			}()
			pr := NewPartyRuntime(Server1, 2, DefaultCostModel(), c0)
			rd := pr.Round()
			for range tc.words {
				rd.Reshare("c")
			}
			err := rd.Exchange()
			wg.Wait()
			if !errors.Is(err, ErrBadFrame) {
				t.Fatalf("err = %v, want ErrBadFrame", err)
			}
			if st := c0.Stats(); st.FramesSent != 1 {
				t.Errorf("party sent %d frames, want its one round frame", st.FramesSent)
			}
		})
	}
}

func TestShareStoreOverwrite(t *testing.T) {
	r := NewRuntime(DefaultCostModel(), 12)
	r.ShareToServers("c", 1)
	r.ShareToServers("c", 2)
	got, err := r.RecoverInside("c")
	if err != nil {
		t.Fatal(err)
	}
	if got != 2 {
		t.Errorf("recovered %d want 2 after overwrite", got)
	}
}

func TestPartyLoadShareMissing(t *testing.T) {
	p := NewParty(Server0, 1)
	if _, ok := p.LoadShare("nope"); ok {
		t.Error("missing share reported present")
	}
	_ = secretshare.Word(0)
}

func BenchmarkSortNetworkSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = SortCompareExchanges(4096)
	}
}

func BenchmarkJointLaplace(b *testing.B) {
	r := NewRuntime(DefaultCostModel(), 99)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.JointLaplace(1.0, OpShrink)
	}
}

// TestStructurallyEqual: transcripts that differ only in share values
// compare equal; a difference in any other field, or in length, is reported
// at the first event it touches.
func TestStructurallyEqual(t *testing.T) {
	base := func() *Transcript {
		return &Transcript{Events: []Event{
			{Kind: EvRandomContributed, Time: 0, Share: 11, Label: "reshare:c", WireRounds: 1, WireBytes: 8},
			{Kind: EvBatchObserved, Time: 4, Size: 8, Label: "transform", WireRounds: 2, WireBytes: 24},
			{Kind: EvFetchObserved, Time: 5, Size: 12, Label: "shrink", WireRounds: 3, WireBytes: 48},
		}}
	}
	a := base()
	other := base()
	for i := range other.Events {
		other.Events[i].Share += 99
	}
	if ok, at := StructurallyEqual(a, other); !ok || at != -1 {
		t.Errorf("transcripts differing only in shares: (%v, %d), want (true, -1)", ok, at)
	}
	for _, c := range []struct {
		name string
		edit func(tr *Transcript)
		at   int
	}{
		{"size", func(tr *Transcript) { tr.Events[2].Size = 13 }, 2},
		{"label", func(tr *Transcript) { tr.Events[1].Label = "spill" }, 1},
		{"time", func(tr *Transcript) { tr.Events[1].Time = 3 }, 1},
		{"kind", func(tr *Transcript) { tr.Events[2].Kind = EvFlushObserved }, 2},
		{"wire rounds", func(tr *Transcript) { tr.Events[0].WireRounds = 2 }, 0},
		{"wire bytes", func(tr *Transcript) { tr.Events[1].WireBytes = 28 }, 1},
		{"shorter", func(tr *Transcript) { tr.Events = tr.Events[:2] }, 2},
		{"longer", func(tr *Transcript) { tr.Append(Event{Kind: EvFlushObserved, Time: 5, Size: 15, Label: "flush"}) }, 3},
	} {
		b := base()
		c.edit(b)
		for _, pair := range [][2]*Transcript{{a, b}, {b, a}} {
			if ok, at := StructurallyEqual(pair[0], pair[1]); ok || at != c.at {
				t.Errorf("%s: (%v, %d), want (false, %d)", c.name, ok, at, c.at)
			}
		}
	}
}
