package incshrink

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"
)

func TestOpenDefaults(t *testing.T) {
	db, err := Open(ViewDef{Within: 10}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if db.Now() != 0 {
		t.Error("fresh DB not at t=0")
	}
	st := db.Stats()
	if st.Epsilon != 1.5 {
		t.Errorf("default epsilon %v", st.Epsilon)
	}
}

// TestOpenValidation: a definition or options the engine's Config would
// refuse is ErrInvalidArgument, one row per check of the public shape that
// Open sets (zero means the default there, so the block sizes and the upload
// period are refused when negative; Open declares no data rate).
func TestOpenValidation(t *testing.T) {
	for _, c := range []struct {
		name string
		def  ViewDef
		opts Options
	}{
		{"negative window", ViewDef{Within: -1}, Options{}},
		{"negative epsilon", ViewDef{Within: 5}, Options{Epsilon: -2}},
		{"negative upload period", ViewDef{Within: 5}, Options{UploadEvery: -1}},
		{"negative left block", ViewDef{Within: 5}, Options{MaxLeft: -1}},
		{"negative right block", ViewDef{Within: 5}, Options{MaxRight: -1}},
	} {
		if _, err := Open(c.def, c.opts); !errors.Is(err, ErrInvalidArgument) {
			t.Errorf("%s: Open error %v, want ErrInvalidArgument", c.name, err)
		}
	}
}

// TestOpenSpillsWithoutRate pins the upkeep rule of an engine Open builds: it
// declares no data rate, so each view update spills max(omega, 2) slots, not
// the ceil(Theta/4)+1 = 9 of a declared rate. With no data and a noise scale
// of 1e-8 every DP fetch is empty, so the view holds the spills alone.
func TestOpenSpillsWithoutRate(t *testing.T) {
	for omega, spill := range map[int]int{1: 2, 3: 3} {
		db := mustOpen(t, ViewDef{Within: 3, Omega: omega}, Options{Epsilon: 1e9, T: 1, MaxLeft: 4, MaxRight: 4, Seed: 5})
		for range 5 {
			if err := db.Advance(nil, nil); err != nil {
				t.Fatal(err)
			}
		}
		if st := db.Stats(); st.Updates != 4 || st.ViewSlots != 4*spill {
			t.Errorf("omega %d: %d view slots after %d updates, want %d", omega, st.ViewSlots, st.Updates, 4*spill)
		}
	}
}

func TestAdvanceAndCount(t *testing.T) {
	db, err := Open(ViewDef{Within: 10}, Options{Seed: 7, T: 5, MaxLeft: 8, MaxRight: 8})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	truth := 0
	key := int64(1)
	for day := 0; day < 120; day++ {
		var left, right []Row
		// Two sales a day; ~70% get a matching return within the window.
		for i := 0; i < 2; i++ {
			left = append(left, Row{key, int64(day)})
			if rng.Float64() < 0.7 {
				lag := int64(rng.Intn(10))
				right = append(right, Row{key, int64(day) + lag})
				// The pair becomes true once the return's own day arrives;
				// for this test we feed returns on their event day below,
				// so count it when emitted. We emit immediately with a
				// forward-dated timestamp, which the view's predicate
				// accepts, so count now.
				truth++
			}
			key++
		}
		if err := db.Advance(left, right); err != nil {
			t.Fatal(err)
		}
	}
	got, qet, stats := finalState(t, db)
	if qet <= 0 {
		t.Error("QET should be positive")
	}
	if got == 0 {
		t.Fatal("count never grew")
	}
	diff := truth - got
	if diff < 0 {
		diff = -diff
	}
	if float64(diff) > 0.5*float64(truth) {
		t.Errorf("count %d too far from truth %d", got, truth)
	}
	if stats.Updates == 0 {
		t.Error("no view updates")
	}
	if stats.ViewEntries == 0 || stats.ViewSlots < stats.ViewEntries {
		t.Errorf("view stats inconsistent: %+v", stats)
	}
	if stats.Step != 120 {
		t.Errorf("step = %d", stats.Step)
	}
}

func finalState(t *testing.T, db *DB) (int, float64, Stats) {
	t.Helper()
	n, qet := db.Count()
	return n, qet, db.Stats()
}

func TestAdvanceBlockSizeEnforced(t *testing.T) {
	db, err := Open(ViewDef{Within: 5}, Options{MaxLeft: 2, MaxRight: 2})
	if err != nil {
		t.Fatal(err)
	}
	big := []Row{{1, 0}, {2, 0}, {3, 0}}
	if err := db.Advance(big, nil); err == nil {
		t.Error("oversized left upload accepted")
	}
	if err := db.Advance(nil, big); err == nil {
		t.Error("oversized right upload accepted")
	}
}

func TestPublicRightUnbounded(t *testing.T) {
	db, err := Open(ViewDef{Within: 5, RightPublic: true}, Options{MaxLeft: 4, MaxRight: 2})
	if err != nil {
		t.Fatal(err)
	}
	big := []Row{{1, 0}, {2, 0}, {3, 0}}
	if err := db.Advance(nil, big); err != nil {
		t.Errorf("public right should not be size-capped: %v", err)
	}
}

func TestRowValidation(t *testing.T) {
	db, _ := Open(ViewDef{Within: 5}, Options{})
	if err := db.Advance([]Row{{1}}, nil); err == nil {
		t.Error("one-attribute row accepted")
	}
}

// TestNegativeKeyRejected is the regression test for a client key joining
// engine padding: pad records take their keys from the negative half of the
// domain (-2 downward), so a left row keyed -41 used to meet the pad keyed
// -41 of a later Transform's right block and put a view entry where no right
// record was ever uploaded. Negative keys are refused, on either stream and
// by either ingest call, before anything mutates.
func TestNegativeKeyRejected(t *testing.T) {
	open := func() *DB {
		db, err := Open(ViewDef{Within: 10}, Options{MaxLeft: 4, MaxRight: 4, T: 1, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	snap := func(db *DB) []byte {
		var buf bytes.Buffer
		if err := db.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	fresh := snap(open())

	db := open()
	if err := db.Advance([]Row{{-41, 0}}, nil); !errors.Is(err, ErrInvalidArgument) {
		t.Fatalf("Advance with left key -41: got %v, want ErrInvalidArgument", err)
	}
	if err := db.Advance([]Row{{1, 0}}, []Row{{-1, 0}}); !errors.Is(err, ErrInvalidArgument) {
		t.Fatalf("Advance with right key -1: got %v, want ErrInvalidArgument", err)
	}
	batch := []StepRows{{Left: []Row{{1, 0}}}, {Right: []Row{{2, 1}, {-3, 1}}}}
	err := db.AdvanceBatch(batch)
	if !errors.Is(err, ErrInvalidArgument) || !strings.Contains(err.Error(), "batch step 1 of 2") {
		t.Fatalf("AdvanceBatch with a negative key in step 1: got %v, want ErrInvalidArgument naming step 1", err)
	}
	if db.Now() != 0 || !bytes.Equal(snap(db), fresh) {
		t.Fatalf("rejected uploads left a trace: clock %d, snapshot differs from a fresh database: %v",
			db.Now(), !bytes.Equal(snap(db), fresh))
	}
	// With the bad row gone, the steps that used to collide run clean: no
	// right record is ever uploaded, so the view must stay empty.
	for i := 0; i < 6; i++ {
		if err := db.Advance(nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := db.Stats().ViewEntries; got != 0 {
		t.Fatalf("%d view entries with no right record uploaded", got)
	}
	// Key 0 is the boundary and is a client key.
	if err := db.Advance([]Row{{0, 6}}, []Row{{0, 6}}); err != nil {
		t.Fatalf("key 0 rejected: %v", err)
	}
}

// TestWideRowsAcceptedAndIgnored: rows may carry extra attributes beyond
// {key, time}; the engine drops them at the API boundary (the fixed-arity
// data plane carries exactly the join schema) instead of panicking or
// corrupting the view column mapping.
func TestWideRowsAcceptedAndIgnored(t *testing.T) {
	wide, err := Open(ViewDef{Within: 10}, Options{T: 5, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	narrow, _ := Open(ViewDef{Within: 10}, Options{T: 5, Seed: 7})
	for day := 0; day < 40; day++ {
		k := int64(day)
		if err := wide.Advance([]Row{{k, k, 99, 98}}, []Row{{k, k + 1, 77}}); err != nil {
			t.Fatalf("day %d: wide rows rejected: %v", day, err)
		}
		if err := narrow.Advance([]Row{{k, k}}, []Row{{k, k + 1}}); err != nil {
			t.Fatal(err)
		}
	}
	nw, _ := wide.Count()
	nn, _ := narrow.Count()
	if nw != nn {
		t.Errorf("wide-row count %d != narrow-row count %d", nw, nn)
	}
	cond := Where{Col: "right.time", Minus: "left.time", Cmp: Le, Val: 10}
	fw, _, err := wide.CountWhere(cond)
	if err != nil {
		t.Fatal(err)
	}
	fn, _, _ := narrow.CountWhere(cond)
	if fw != fn {
		t.Errorf("wide-row filtered count %d != narrow-row %d", fw, fn)
	}
}

func TestANTProtocol(t *testing.T) {
	db, err := Open(ViewDef{Within: 10}, Options{Protocol: SDPANT, Theta: 10, Seed: 3, MaxLeft: 8, MaxRight: 8})
	if err != nil {
		t.Fatal(err)
	}
	key := int64(1)
	for day := 0; day < 100; day++ {
		left := []Row{{key, int64(day)}}
		right := []Row{{key, int64(day)}}
		key++
		if err := db.Advance(left, right); err != nil {
			t.Fatal(err)
		}
	}
	if db.Stats().Updates == 0 {
		t.Error("ANT never synchronized")
	}
	n, _ := db.Count()
	if n == 0 {
		t.Error("view empty after 100 matching days")
	}
}

func TestProtocolString(t *testing.T) {
	if SDPTimer.String() != "sDPTimer" || SDPANT.String() != "sDPANT" {
		t.Error("protocol names wrong")
	}
}

func TestCountWhere(t *testing.T) {
	db, err := Open(ViewDef{Within: 10}, Options{Seed: 5, T: 3, MaxLeft: 8, MaxRight: 8})
	if err != nil {
		t.Fatal(err)
	}
	// Keys 1..60, one matched pair per day; half the pairs have lag <= 2.
	for day := 0; day < 60; day++ {
		key := int64(day + 1)
		lag := int64(day % 4) // 0,1,2,3 cycling
		if err := db.Advance([]Row{{key, int64(day)}}, []Row{{key, int64(day) + lag}}); err != nil {
			t.Fatal(err)
		}
	}
	all, _, err := db.CountWhere()
	if err != nil {
		t.Fatal(err)
	}
	fast, _, err := db.CountWhere(Where{Col: "right.time", Minus: "left.time", Cmp: Le, Val: 1})
	if err != nil {
		t.Fatal(err)
	}
	if all == 0 {
		t.Fatal("unconditional count empty")
	}
	if fast >= all {
		t.Errorf("filtered count %d not below total %d", fast, all)
	}
	// Lags cycle 0..3 uniformly, so lag<=1 is about half of all pairs.
	ratio := float64(fast) / float64(all)
	if ratio < 0.3 || ratio > 0.7 {
		t.Errorf("filtered/total ratio %v, want about 0.5", ratio)
	}
	// Unknown column errors.
	if _, _, err := db.CountWhere(Where{Col: "price", Cmp: Gt, Val: 0}); err == nil {
		t.Error("unknown column accepted")
	}
}
