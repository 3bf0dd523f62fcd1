package core

import (
	"bytes"
	"slices"
	"sync"
	"testing"

	"incshrink/internal/mpc"
	"incshrink/internal/snapshot"
	"incshrink/internal/wire"
	"incshrink/internal/workload"
)

// partyRun is one of paperRows as the party tests run it: the engine's
// configuration and protocol, and the trace cut into StepBatch calls.
func partyRun(t *testing.T, wl workload.Config, sdpant, merge bool, cut int) (Config, protocol, [][]workload.Step) {
	t.Helper()
	cfg := DefaultConfig(wl, wl.Seed)
	cfg.MergeWindows = merge
	proto := timer
	if sdpant {
		proto = ant
	}
	var batches [][]workload.Step
	for steps := mustTrace(t, wl).Steps; len(steps) > 0; steps = steps[min(cut, len(steps)):] {
		batches = append(batches, steps[:min(cut, len(steps))])
	}
	return cfg, proto, batches
}

// both runs do for each party in a goroutine of its own and waits for the
// two: a party's round blocks until its peer's half arrives.
func both(do func(i int)) {
	var wg sync.WaitGroup
	for i := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			do(i)
		}()
	}
	wg.Wait()
}

// newParties builds the engine as two one-party Frameworks, each over
// mpc.NewPartyRuntime on one end of a fresh wire.Loopback. The parties are
// built concurrently: construction already runs a round.
func newParties(t *testing.T, cfg Config, proto protocol) [2]*Framework {
	t.Helper()
	c0, c1 := wire.Loopback(1)
	t.Cleanup(func() {
		c0.Close()
		c1.Close()
	})
	conns := [2]wire.Conn{c0, c1}
	var one [2]*Framework
	var errs [2]error
	both(func(i int) {
		rt := mpc.NewPartyRuntime(mpc.PartyID(i), cfg.Seed, mpc.DefaultCostModel(), conns[i])
		one[i], errs[i] = newOn(rt, cfg, proto)
	})
	for i, err := range errs {
		if err != nil {
			t.Fatalf("party %d: %v", i, err)
		}
	}
	return one
}

// answers feeds each batch to f in one StepBatch call and answers the
// standing query after each.
func answers(f *Framework, batches [][]workload.Step) []int {
	var out []int
	for _, b := range batches {
		f.StepBatch(b)
		n, _ := f.Query()
		out = append(out, n)
	}
	return out
}

// TestPartyRuntimesMatchInProcess runs each of paperRows as two one-party
// engines (newParties), fed the same plaintext uploads, beside the
// in-process engine. Each party's transcript digest and wire tally, every
// phase's gates and every answer must be the in-process run's, and the
// in-process runtime's snapshot section must be the two parties' sections
// joined, followed by the shared meter.
func TestPartyRuntimesMatchInProcess(t *testing.T) {
	for _, c := range paperRows {
		t.Run(c.name, func(t *testing.T) {
			cfg, proto, batches := partyRun(t, c.wl, c.ant, c.merge, c.cut)
			inProc, err := build(cfg, proto)
			if err != nil {
				t.Fatal(err)
			}
			want := answers(inProc, batches)

			one := newParties(t, cfg, proto)
			var got [2][]int
			both(func(i int) { got[i] = answers(one[i], batches) })

			// body is a section's bytes without the stream's magic and CRC-32C
			// trailer; tail is the meter's section, its phase count and then
			// each phase's gates.
			body := func(write func(*snapshot.Encoder)) []byte {
				var buf bytes.Buffer
				enc := snapshot.NewEncoder(&buf)
				write(enc)
				if err := enc.Finish(); err != nil {
					t.Fatal(err)
				}
				return buf.Bytes()[len(snapshot.Magic) : buf.Len()-4]
			}
			tail := body(func(e *snapshot.Encoder) {
				e.U32(uint32(mpc.OpOther - mpc.OpTransform + 1))
				for op := mpc.OpTransform; op <= mpc.OpOther; op++ {
					e.F64(inProc.rt.Meter.Gates(op))
				}
			})
			var joined []byte
			for i, f := range one {
				id := mpc.PartyID(i)
				if !slices.Equal(got[i], want) {
					t.Errorf("party %d answers differ from the in-process engine's", i)
				}
				if f.rt.Party(id).TranscriptDigest() != inProc.rt.Party(id).TranscriptDigest() {
					t.Errorf("party %d: transcript digest differs from the in-process party's", i)
				}
				r, b := f.rt.WireTally()
				if wr, wb := inProc.rt.Party(id).WireTally(); r != wr || b != wb {
					t.Errorf("party %d: wire tally %d rounds, %d B; in-process %d rounds, %d B", i, r, b, wr, wb)
				}
				for op := mpc.OpTransform; op <= mpc.OpOther; op++ {
					if g, w := f.rt.Meter.Gates(op), inProc.rt.Meter.Gates(op); g != w {
						t.Errorf("party %d: %v gates %v, in-process %v", i, op, g, w)
					}
				}
				party, ok := bytes.CutSuffix(body(f.rt.EncodeState), tail)
				if !ok {
					t.Fatalf("party %d section does not end in the in-process runtime's meter", i)
				}
				joined = append(joined, party...)
			}
			if !bytes.Equal(body(inProc.rt.EncodeState), append(joined, tail...)) {
				t.Error("the in-process runtime's section is not its parties' one-party sections joined")
			}
		})
	}
}

// TestPartyEnginesRejoinByteIdentical is the crash/rejoin contract of a
// party: each of paperRows runs as two one-party engines, and each party
// writes its own state section (Framework.EncodeState) after the k-th
// StepBatch call. Both are rebuilt over a fresh loopback, each decodes its
// own section and the pair continues. Their answers, transcript digests and
// final state sections — which carry the wire tally, so a rejoined party
// keeps stamping events at the same positions in the conversation — must be
// those of the pair that never stopped. k is the first call, the middle one
// and the fourth from last, which on the two 2,010-step rows lies past the
// cache flush at step 2000.
func TestPartyEnginesRejoinByteIdentical(t *testing.T) {
	for _, c := range paperRows {
		t.Run(c.name, func(t *testing.T) {
			cfg, proto, batches := partyRun(t, c.wl, c.ant, c.merge, c.cut)
			ks := []int{1, len(batches) / 2, len(batches) - 4}

			ref := newParties(t, cfg, proto)
			var want [2][]int
			sections := map[int][2][]byte{}
			for b := range batches {
				both(func(i int) { want[i] = append(want[i], answers(ref[i], batches[b:b+1])...) })
				if slices.Contains(ks, b+1) {
					sections[b+1] = [2][]byte{encodeState(t, ref[0]), encodeState(t, ref[1])}
				}
			}

			for _, k := range ks {
				one := newParties(t, cfg, proto)
				for i, f := range one {
					if err := decodeState(f, sections[k][i]); err != nil {
						t.Fatalf("k=%d: party %d restores its section: %v", k, i, err)
					}
				}
				var got [2][]int
				both(func(i int) { got[i] = answers(one[i], batches[k:]) })
				for i, f := range one {
					id := mpc.PartyID(i)
					if !slices.Equal(got[i], want[i][k:]) {
						t.Errorf("k=%d: party %d answers after the rejoin differ from the uninterrupted pair's", k, i)
					}
					if f.rt.Party(id).TranscriptDigest() != ref[i].rt.Party(id).TranscriptDigest() {
						t.Errorf("k=%d: party %d transcript digest differs from the uninterrupted party's", k, i)
					}
					if !bytes.Equal(encodeState(t, f), encodeState(t, ref[i])) {
						t.Errorf("k=%d: party %d final state section differs from the uninterrupted party's", k, i)
					}
				}
			}
		})
	}
}
