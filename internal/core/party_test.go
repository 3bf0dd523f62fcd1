package core

import (
	"bytes"
	"slices"
	"sync"
	"testing"

	"incshrink/internal/mpc"
	"incshrink/internal/snapshot"
	"incshrink/internal/wire"
)

// TestPartyRuntimesMatchInProcess runs each of paperRows as two one-party
// engines — each a Framework over mpc.NewPartyRuntime on one end of a
// wire.Loopback, fed the same plaintext uploads — beside the in-process
// engine. Each party's transcript digest and wire tally, every phase's gates
// and every answer must be the in-process run's, and the in-process runtime's
// snapshot section must be the two parties' sections joined, followed by the
// shared meter. The parties are built concurrently: construction already
// runs a round.
func TestPartyRuntimesMatchInProcess(t *testing.T) {
	for _, c := range paperRows {
		t.Run(c.name, func(t *testing.T) {
			cfg := DefaultConfig(c.wl, c.wl.Seed)
			cfg.MergeWindows = c.merge
			steps := mustTrace(t, c.wl).Steps
			proto := timer
			if c.ant {
				proto = ant
			}
			// answers feeds steps to f in StepBatch calls of c.cut steps and
			// answers the standing query after each.
			answers := func(f *Framework) []int {
				var out []int
				for i := 0; i < len(steps); i += c.cut {
					f.StepBatch(steps[i:min(i+c.cut, len(steps))])
					n, _ := f.Query()
					out = append(out, n)
				}
				return out
			}
			both, err := build(cfg, proto)
			if err != nil {
				t.Fatal(err)
			}
			want := answers(both)

			c0, c1 := wire.Loopback(1)
			defer c0.Close()
			defer c1.Close()
			var one [2]*Framework
			var got [2][]int
			var errs [2]error
			var wg sync.WaitGroup
			for i, conn := range []wire.Conn{c0, c1} {
				wg.Add(1)
				go func() {
					defer wg.Done()
					rt := mpc.NewPartyRuntime(mpc.PartyID(i), cfg.Seed, mpc.DefaultCostModel(), conn)
					if one[i], errs[i] = newOn(rt, cfg, proto); errs[i] == nil {
						got[i] = answers(one[i])
					}
				}()
			}
			wg.Wait()

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
					e.F64(both.rt.Meter.Gates(op))
				}
			})
			var joined []byte
			for i, f := range one {
				if errs[i] != nil {
					t.Fatalf("party %d: %v", i, errs[i])
				}
				id := mpc.PartyID(i)
				if !slices.Equal(got[i], want) {
					t.Errorf("party %d answers differ from the in-process engine's", i)
				}
				if f.rt.Party(id).TranscriptDigest() != both.rt.Party(id).TranscriptDigest() {
					t.Errorf("party %d: transcript digest differs from the in-process party's", i)
				}
				r, b := f.rt.WireTally()
				if wr, wb := both.rt.Party(id).WireTally(); r != wr || b != wb {
					t.Errorf("party %d: wire tally %d rounds, %d B; in-process %d rounds, %d B", i, r, b, wr, wb)
				}
				for op := mpc.OpTransform; op <= mpc.OpOther; op++ {
					if g, w := f.rt.Meter.Gates(op), both.rt.Meter.Gates(op); g != w {
						t.Errorf("party %d: %v gates %v, in-process %v", i, op, g, w)
					}
				}
				party, ok := bytes.CutSuffix(body(f.rt.EncodeState), tail)
				if !ok {
					t.Fatalf("party %d section does not end in the in-process runtime's meter", i)
				}
				joined = append(joined, party...)
			}
			if !bytes.Equal(body(both.rt.EncodeState), append(joined, tail...)) {
				t.Error("the in-process runtime's section is not its parties' one-party sections joined")
			}
		})
	}
}
