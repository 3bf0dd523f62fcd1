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
// the TPC-ds-like workload.
func buildEngine(t *testing.T, ant bool, steps int) (*Framework, *workload.Trace) {
	t.Helper()
	wl := workload.TPCDS(steps, 7)
	cfg := DefaultConfig(wl, 7)
	var (
		f   *Framework
		err error
	)
	if ant {
		f, err = NewANTEngine(cfg, wl)
	} else {
		f, err = NewTimerEngine(cfg, wl)
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

func rebuildLike(t *testing.T, f *Framework) *Framework {
	t.Helper()
	var (
		fresh *Framework
		err   error
	)
	if f.Name() == "DP-ANT" {
		fresh, err = NewANTEngine(f.cfg, f.wl)
	} else {
		fresh, err = NewTimerEngine(f.cfg, f.wl)
	}
	if err != nil {
		t.Fatal(err)
	}
	return fresh
}

// TestFrameworkSnapshotRestoreContinues is the core of the durability
// contract: an engine snapshotted at step k and restored into a fresh
// framework must continue bit-identically — same query answers, same
// metrics, same transcripts — to the engine that never stopped.
func TestFrameworkSnapshotRestoreContinues(t *testing.T) {
	const steps = 60
	for _, ant := range []bool{false, true} {
		for _, k := range []int{1, 17, 30, 59} {
			t.Run(fmt.Sprintf("ant=%t/k=%d", ant, k), func(t *testing.T) {
				ref, tr := buildEngine(t, ant, steps)
				split, _ := buildEngine(t, ant, steps)

				for _, st := range tr.Steps[:k] {
					ref.Step(st)
					split.Step(st)
					ref.Query()
					split.Query()
				}
				var buf bytes.Buffer
				if err := split.Snapshot(&buf); err != nil {
					t.Fatalf("snapshot at step %d: %v", k, err)
				}
				restored := rebuildLike(t, split)
				if err := restored.Restore(bytes.NewReader(buf.Bytes())); err != nil {
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
	for _, ant := range []bool{false, true} {
		f, tr := buildEngine(t, ant, 10_000)
		section := func() int {
			var buf bytes.Buffer
			enc := snapshot.NewEncoder(&buf)
			snapshot.EncodeRuntime(enc, f.rt)
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
			t.Errorf("ant=%t: runtime section is %d bytes after 10 steps, %d after %d", ant, early, late, len(tr.Steps))
		}
		if now := f.rt.Party(mpc.Server0).EventCount(); now < seen+uint64(len(tr.Steps))/2 {
			t.Errorf("ant=%t: only %d events over the run; the section had nothing to not grow with", ant, now-seen)
		}
	}
}

// TestFrameworkSnapshotDeterministicBytes pins that snapshotting is a pure
// read: two snapshots of the same state are byte-identical (maps serialize
// sorted), and snapshot → restore → snapshot reproduces the bytes.
func TestFrameworkSnapshotDeterministicBytes(t *testing.T) {
	f, tr := buildEngine(t, true, 40)
	for _, st := range tr.Steps {
		f.Step(st)
		f.Query()
	}
	var a, b bytes.Buffer
	if err := f.Snapshot(&a); err != nil {
		t.Fatal(err)
	}
	if err := f.Snapshot(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two snapshots of the same state differ")
	}
	restored := rebuildLike(t, f)
	if err := restored.Restore(bytes.NewReader(a.Bytes())); err != nil {
		t.Fatal(err)
	}
	var c bytes.Buffer
	if err := restored.Snapshot(&c); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), c.Bytes()) {
		t.Fatal("snapshot -> restore -> snapshot changed the bytes")
	}
}

// TestFrameworkRestoreRejectsMismatchedConfig pins the fingerprint check:
// a snapshot must not restore into an engine built with different
// parameters or a different Shrink protocol.
func TestFrameworkRestoreRejectsMismatchedConfig(t *testing.T) {
	f, tr := buildEngine(t, false, 20)
	for _, st := range tr.Steps {
		f.Step(st)
	}
	var buf bytes.Buffer
	if err := f.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}

	other, err := NewANTEngine(f.cfg, f.wl)
	if err != nil {
		t.Fatal(err)
	}
	if err := other.Restore(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("Timer snapshot restored into an ANT engine")
	} else if !errors.Is(err, snapshot.ErrFingerprintMismatch) {
		t.Fatalf("want fingerprint mismatch, got %v", err)
	}

	cfg := f.cfg
	cfg.Epsilon = 0.5
	diff, err := NewTimerEngine(cfg, f.wl)
	if err != nil {
		t.Fatal(err)
	}
	if err := diff.Restore(bytes.NewReader(buf.Bytes())); !errors.Is(err, snapshot.ErrFingerprintMismatch) {
		t.Fatalf("want fingerprint mismatch for different epsilon, got %v", err)
	}
}

// TestSnapshotEveryStepByteIdentical: an engine snapshotted and restored
// into a fresh framework after every step, each restore continuing from the
// last, stays byte-identical to the engine that never stopped — its snapshot
// equals the uninterrupted one after every step — and after every step and
// every restore its carry is the union its ledgers describe (checkUnion). A
// restored cache forgets its run layout and re-sorts on its next read; the
// real-first order is total, so that read leaves the bytes the merge would.
// A restored union places each block's rows in the order the snapshot lists
// them, not the order they arrived in; nothing observable depends on it. The
// deployments cover the layouts the union meets: TPC-ds under sDPANT; CPDB,
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
			ref, err := build(cfg, c.wl)
			if err != nil {
				t.Fatal(err)
			}
			hop, _ := build(cfg, c.wl)
			tr := mustTrace(t, c.wl)
			for lo := 0; lo < len(tr.Steps); lo += c.chunk {
				steps := tr.Steps[lo:min(lo+c.chunk, len(tr.Steps))]
				at := steps[len(steps)-1].T
				ref.StepBatch(steps)
				hop.StepBatch(steps)
				checkUnion(t, hop, fmt.Sprintf("after step %d", at))
				var want, got bytes.Buffer
				if err := ref.Snapshot(&want); err != nil {
					t.Fatal(err)
				}
				if err := hop.Snapshot(&got); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(want.Bytes(), got.Bytes()) {
					t.Fatalf("step %d: the restored chain's snapshot differs from the uninterrupted one", at)
				}
				hop = rebuildLike(t, hop)
				if err := hop.Restore(bytes.NewReader(got.Bytes())); err != nil {
					t.Fatalf("restore after step %d: %v", at, err)
				}
				checkUnion(t, hop, fmt.Sprintf("restored after step %d", at))
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
