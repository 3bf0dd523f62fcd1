package core

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"incshrink/internal/mpc"
	"incshrink/internal/snapshot"
	"incshrink/internal/workload"
)

// buildEngine constructs a paper-default engine of the given protocol over
// the TPC-ds-like workload, through the constructor production calls.
func buildEngine(t *testing.T, proto protocol, steps int) (*Framework, *workload.Trace) {
	t.Helper()
	wl := workload.TPCDS(steps, 7)
	cfg := DefaultConfig(wl, 7)
	var (
		f   *Framework
		err error
	)
	switch proto {
	case timer:
		f, err = NewTimerEngine(cfg)
	case ant:
		f, err = NewANTEngine(cfg)
	case ep:
		f, err = NewEPEngine(cfg, wl.MaxMultiplicity)
	case otm:
		f, err = NewOTMEngine(cfg, wl.MaxMultiplicity)
	}
	if err != nil {
		t.Fatal(err)
	}
	tr, err := workload.Generate(wl)
	if err != nil {
		t.Fatal(err)
	}
	return f, tr
}

// rebuildLike builds a fresh engine with f's configuration and protocol: the
// engine a snapshot of f restores into.
func rebuildLike(t *testing.T, f *Framework) *Framework {
	t.Helper()
	fresh, err := build(f.cfg, f.proto)
	if err != nil {
		t.Fatal(err)
	}
	return fresh
}

// TestFrameworkSnapshotRestoreContinues is the core of the durability
// contract: an engine snapshotted at step k and restored into a fresh
// framework must continue bit-identically — same query answers, same
// metrics, same transcripts — to the engine that never stopped. It holds for
// the baselines too: OTM materializes at step 0 on TPC-ds, and its freeze is
// derived from the view it restores with, so a restored OTM engine ignores
// the steps after k as the uninterrupted one does.
func TestFrameworkSnapshotRestoreContinues(t *testing.T) {
	const steps = 60
	for _, c := range []struct {
		name  string
		proto protocol
		ks    []int
	}{
		{"ant=false", timer, []int{1, 17, 30, 59}},
		{"ant=true", ant, []int{1, 17, 30, 59}},
		{"ep", ep, []int{1, 17, 59}},
		{"otm", otm, []int{1, 17, 59}},
	} {
		for _, k := range c.ks {
			t.Run(fmt.Sprintf("%s/k=%d", c.name, k), func(t *testing.T) {
				ref, tr := buildEngine(t, c.proto, steps)
				split, _ := buildEngine(t, c.proto, steps)

				for _, st := range tr.Steps[:k] {
					ref.Step(st)
					split.Step(st)
					ref.Query()
					split.Query()
				}
				restored := rebuildLike(t, split)
				if err := decodeState(restored, encodeState(t, split)); err != nil {
					t.Fatalf("restore at step %d: %v", k, err)
				}

				for _, st := range tr.Steps[k:] {
					ref.Step(st)
					restored.Step(st)
					nRef, qetRef := ref.Query()
					nRes, qetRes := restored.Query()
					if nRef != nRes || qetRef != qetRes {
						t.Fatalf("step %d: restored answered (%d, %v), uninterrupted (%d, %v)",
							st.T, nRes, qetRes, nRef, qetRef)
					}
				}
				if !reflect.DeepEqual(ref.Metrics(), restored.Metrics()) {
					t.Errorf("metrics diverged:\nrestored: %+v\nuninterrupted: %+v", restored.Metrics(), ref.Metrics())
				}
				for _, pair := range [][2]*mpc.Party{
					{ref.rt.Party(mpc.Server0), restored.rt.Party(mpc.Server0)},
					{ref.rt.Party(mpc.Server1), restored.rt.Party(mpc.Server1)},
				} {
					p, q := pair[0], pair[1]
					if p.TranscriptDigest() != q.TranscriptDigest() || p.EventCount() != q.EventCount() {
						t.Errorf("%v transcript diverged after restore: digest %x over %d events, uninterrupted %x over %d",
							p.ID, q.TranscriptDigest(), q.EventCount(), p.TranscriptDigest(), p.EventCount())
					}
				}
			})
		}
	}
}

// TestRuntimeStateDoesNotGrowWithHorizon: a party keeps the digest of what it
// observed, not the log, so the snapshot's runtime section — both parties,
// the protocol stream, the meter, the clock — is the same size after 10,000
// steps as after 10, under either protocol. Only the view may grow.
func TestRuntimeStateDoesNotGrowWithHorizon(t *testing.T) {
	for _, proto := range []protocol{timer, ant} {
		f, tr := buildEngine(t, proto, 10_000)
		section := func() int {
			var buf bytes.Buffer
			enc := snapshot.NewEncoder(&buf)
			f.rt.EncodeState(enc)
			if err := enc.Finish(); err != nil {
				t.Fatal(err)
			}
			return buf.Len()
		}
		for _, st := range tr.Steps[:10] {
			f.Step(st)
		}
		early, seen := section(), f.rt.Party(mpc.Server0).EventCount()
		for _, st := range tr.Steps[10:] {
			f.Step(st)
		}
		if late := section(); late != early {
			t.Errorf("protocol %d: runtime section is %d bytes after 10 steps, %d after %d", f.proto, early, late, len(tr.Steps))
		}
		if now := f.rt.Party(mpc.Server0).EventCount(); now < seen+uint64(len(tr.Steps))/2 {
			t.Errorf("protocol %d: only %d events over the run; the section had nothing to not grow with", f.proto, now-seen)
		}
	}
}

// TestFrameworkSnapshotDeterministicBytes pins that snapshotting is a pure
// read: two snapshots of the same state are byte-identical (maps serialize
// sorted), and snapshot → restore → snapshot reproduces the bytes.
func TestFrameworkSnapshotDeterministicBytes(t *testing.T) {
	f, tr := buildEngine(t, ant, 40)
	for _, st := range tr.Steps {
		f.Step(st)
		f.Query()
	}
	a := encodeState(t, f)
	if !bytes.Equal(a, encodeState(t, f)) {
		t.Fatal("two snapshots of the same state differ")
	}
	restored := rebuildLike(t, f)
	if err := decodeState(restored, a); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, encodeState(t, restored)) {
		t.Fatal("snapshot -> restore -> snapshot changed the bytes")
	}
}

// TestRestoreRejectsForgedClock: the snapshot holds one clock, the
// engine's, and the ledgers pin it — the newest block is the last upload
// before it — so a stream re-encoded with the clock moved by any whole number
// of upload periods is ErrCorrupt, not an engine that restores and then
// answers differently from the one that never stopped.
//
// The rows on CPDB (UploadEvery 5, snapshotted at clock 43) move the clock
// out of its upload period, to 45 and 48. A clock moved inside the period
// (40–42, 44) restores: the ledgers pin it only to the period, and see
// DecodeState for why nothing else in the stream is checked against it.
func TestRestoreRejectsForgedClock(t *testing.T) {
	f, tr := buildEngine(t, timer, 40)
	for _, st := range tr.Steps {
		f.Step(st)
	}
	wl := workload.CPDB(60, 7)
	cpdb, err := NewTimerEngine(DefaultConfig(wl, 7))
	if err != nil {
		t.Fatal(err)
	}
	ctr, err := workload.Generate(wl)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range ctr.Steps[:43] {
		cpdb.Step(st)
	}
	for _, c := range []struct {
		f     *Framework
		clock int
	}{
		{f, -1}, {f, 20}, {f, 39}, {f, 41}, {f, 1040},
		{cpdb, 45}, {cpdb, 48},
	} {
		now := c.f.now
		c.f.now = c.clock
		forged := encodeState(t, c.f)
		c.f.now = now
		if err := decodeState(rebuildLike(t, c.f), forged); !errors.Is(err, snapshot.ErrCorrupt) {
			t.Errorf("upload period %d, clock %d, engine at %d: restore error %v, want ErrCorrupt", c.f.cfg.Shape.UploadEvery, c.clock, now, err)
		}
	}
}

// TestSnapshotEveryStepByteIdentical: an engine snapshotted and restored
// into a fresh framework after every step, each restore continuing from the
// last, stays byte-identical to the engine that never stopped — its snapshot
// equals the uninterrupted one after every step — and after every step and
// every restore its carry is the union its ledgers describe (checkUnion) and
// the uninterrupted engine's union exactly: both sides row for row, in
// arrival order, and the key order key for key. A restored cache forgets its
// run layout and re-sorts on its next read; the real-first order is total, so
// that read leaves the bytes the merge would. The deployments cover the
// layouts the union meets: TPC-ds under sDPANT; CPDB,
// whose public relation enters in blocks of varying size and lapses later
// than the left stream (the left side keeps 1 block, the right 3); and
// TPC-ds under sDPTimer with merged windows, driven in StepBatch calls of 8
// steps whose segments join several blocks at once.
func TestSnapshotEveryStepByteIdentical(t *testing.T) {
	cases := []struct {
		name  string
		wl    workload.Config
		tune  func(*Config)
		ant   bool
		chunk int
		check func(t *testing.T, f *Framework) // the premise of the deployment, after the run
	}{
		{name: "tpcds sDPANT", wl: workload.TPCDS(40, 7), ant: true, chunk: 1},
		{name: "cpdb public relation", wl: workload.CPDB(60, 7), ant: true, chunk: 1, check: func(t *testing.T, f *Framework) {
			sizes := map[int]bool{}
			for _, b := range f.str[right].live {
				sizes[b.n] = true
			}
			if len(f.str[left].live) != 1 || len(f.str[right].live) != 3 || len(sizes) < 2 {
				t.Errorf("the sides hold %d and %d blocks, the right ones of %d sizes: want 1 and 3, of varying size",
					len(f.str[left].live), len(f.str[right].live), len(sizes))
			}
		}},
		{name: "tpcds sDPTimer merged windows", wl: workload.TPCDS(40, 7), tune: func(c *Config) { c.MergeWindows = true }, chunk: 8,
			check: func(t *testing.T, f *Framework) {
				if f.transforms >= 40/2 {
					t.Errorf("%d transforms over 40 daily uploads: the segments must join several blocks", f.transforms)
				}
			}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := DefaultConfig(c.wl, 7)
			if c.tune != nil {
				c.tune(&cfg)
			}
			build := NewTimerEngine
			if c.ant {
				build = NewANTEngine
			}
			ref, err := build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			hop, _ := build(cfg)
			tr := mustTrace(t, c.wl)
			for lo := 0; lo < len(tr.Steps); lo += c.chunk {
				steps := tr.Steps[lo:min(lo+c.chunk, len(tr.Steps))]
				at := steps[len(steps)-1].T
				ref.StepBatch(steps)
				hop.StepBatch(steps)
				checkUnion(t, hop, fmt.Sprintf("after step %d", at))
				got := encodeState(t, hop)
				if !bytes.Equal(encodeState(t, ref), got) {
					t.Fatalf("step %d: the restored chain's snapshot differs from the uninterrupted one", at)
				}
				hop = rebuildLike(t, hop)
				if err := decodeState(hop, got); err != nil {
					t.Fatalf("restore after step %d: %v", at, err)
				}
				checkUnion(t, hop, fmt.Sprintf("restored after step %d", at))
				if !reflect.DeepEqual(carryStateOf(hop), carryStateOf(ref)) {
					t.Fatalf("restored after step %d: the union differs from the uninterrupted one", at)
				}
			}
			if ref.Metrics().Updates < 3 {
				t.Errorf("only %d view updates in %d steps: too few reads to exercise a restored cache", ref.Metrics().Updates, len(tr.Steps))
			}
			if !reflect.DeepEqual(ref.Metrics(), hop.Metrics()) {
				t.Errorf("metrics diverged:\nrestored: %+v\nuninterrupted: %+v", hop.Metrics(), ref.Metrics())
			}
			if c.check != nil {
				c.check(t, ref)
			}
		})
	}
}

// encodeState writes f's state section as a stream of its own: the magic,
// EncodeState and the encoder's CRC trailer.
func encodeState(t testing.TB, f *Framework) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := snapshot.NewEncoder(&buf)
	f.EncodeState(enc)
	if err := enc.Finish(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// decodeState loads a stream encodeState wrote into f, which must have been
// built with the writer's Config and protocol: DecodeState,
// then the decoder's CRC check.
func decodeState(f *Framework, data []byte) error {
	dec := snapshot.NewDecoder(bytes.NewReader(data))
	f.DecodeState(dec)
	return dec.Finish()
}
