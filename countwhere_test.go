package incshrink

import (
	"errors"
	"slices"
	"testing"

	"incshrink/internal/query"
)

// TestCmpOpMapping pins the Cmp -> query.Op correspondence CountWhere
// relies on: the public operators convert positionally, so the two enums
// must stay in lockstep.
func TestCmpOpMapping(t *testing.T) {
	cases := []struct {
		cmp  Cmp
		op   query.Op
		text string
	}{
		{Eq, query.EQ, "="},
		{Ne, query.NE, "!="},
		{Lt, query.LT, "<"},
		{Le, query.LE, "<="},
		{Gt, query.GT, ">"},
		{Ge, query.GE, ">="},
	}
	for _, c := range cases {
		if got := query.Op(c.cmp); got != c.op {
			t.Errorf("query.Op(%d) = %v, want %v", c.cmp, got, c.op)
		}
		if got := query.Op(c.cmp).String(); got != c.text {
			t.Errorf("op %v renders %q, want %q", c.op, got, c.text)
		}
	}
}

// countWhereDB builds a small view: keys 1..40, one matched pair per day
// with lag cycling 0..3, T=1 so the view synchronizes every step.
func countWhereDB(t *testing.T) *DB {
	t.Helper()
	db, err := Open(ViewDef{Within: 10}, Options{Seed: 9, T: 1, MaxLeft: 8, MaxRight: 8})
	if err != nil {
		t.Fatal(err)
	}
	for day := 0; day < 40; day++ {
		key := int64(day + 1)
		lag := int64(day % 4)
		if err := db.Advance([]Row{{key, int64(day)}}, []Row{{key, int64(day) + lag}}); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// TestCountWhereOperators checks every operator round-trips through the
// rewrite and executes with the right semantics: complementary operator
// pairs must partition the view exactly.
func TestCountWhereOperators(t *testing.T) {
	db := countWhereDB(t)
	total, _, err := db.CountWhere()
	if err != nil {
		t.Fatal(err)
	}
	if total == 0 {
		t.Fatal("view empty")
	}
	count := func(c Cmp, val int64) int {
		t.Helper()
		n, _, err := db.CountWhere(Where{Col: "left.key", Cmp: c, Val: val})
		if err != nil {
			t.Fatalf("op %d: %v", c, err)
		}
		return n
	}
	const pivot = 20
	eq, ne := count(Eq, pivot), count(Ne, pivot)
	lt, ge := count(Lt, pivot), count(Ge, pivot)
	le, gt := count(Le, pivot), count(Gt, pivot)
	if eq+ne != total {
		t.Errorf("Eq+Ne = %d+%d != total %d", eq, ne, total)
	}
	if lt+ge != total {
		t.Errorf("Lt+Ge = %d+%d != total %d", lt, ge, total)
	}
	if le+gt != total {
		t.Errorf("Le+Gt = %d+%d != total %d", le, gt, total)
	}
	if le != lt+eq {
		t.Errorf("Le %d != Lt %d + Eq %d", le, lt, eq)
	}
	if ge != gt+eq {
		t.Errorf("Ge %d != Gt %d + Eq %d", ge, gt, eq)
	}
	if lt == 0 || gt == 0 {
		t.Errorf("pivot did not split the view: lt=%d gt=%d", lt, gt)
	}

	// The difference form (Minus) with every ordering operator: lag cycles
	// 0..3, so lag<=1 and lag>1 also partition.
	diff := func(c Cmp, val int64) int {
		t.Helper()
		n, _, err := db.CountWhere(Where{Col: "right.time", Minus: "left.time", Cmp: c, Val: val})
		if err != nil {
			t.Fatalf("diff op %d: %v", c, err)
		}
		return n
	}
	if fast, slow := diff(Le, 1), diff(Gt, 1); fast+slow != total || fast == 0 || slow == 0 {
		t.Errorf("lag partition: %d + %d != %d", fast, slow, total)
	}
}

// TestCountWhereErrors covers the rewrite error paths: unknown filter
// column, unknown Minus column, an operator outside the enum (which used to
// answer 0, nil), errors on any condition of a conjunction, and a ninth
// condition — every one an ErrInvalidArgument, and all without perturbing
// the query stats.
func TestCountWhereErrors(t *testing.T) {
	db := countWhereDB(t)
	queriesBefore := db.Stats().QuerySeconds

	for name, conds := range map[string][]Where{
		"unknown column":                   {{Col: "price", Cmp: Gt, Val: 0}},
		"unknown Minus column":             {{Col: "right.time", Minus: "ship.time", Cmp: Le, Val: 1}},
		"operator past the enum":           {{Col: "left.key", Cmp: Cmp(17)}},
		"operator just past the enum":      {{Col: "left.key", Cmp: Ge + 1}},
		"negative operator":                {{Col: "left.key", Cmp: Cmp(-1)}},
		"bad second condition":             {{Col: "left.key", Cmp: Gt, Val: 0}, {Col: "nope", Cmp: Eq, Val: 1}},
		"bad Minus in second condition":    {{Col: "left.key", Cmp: Gt, Val: 0}, {Col: "right.time", Minus: "nope", Cmp: Le, Val: 1}},
		"bad operator in second condition": {{Col: "left.key", Cmp: Gt, Val: 0}, {Col: "left.key", Cmp: Cmp(17)}},
		"nine conditions":                  slices.Repeat([]Where{{Col: "left.key", Cmp: Gt, Val: 0}}, 9),
	} {
		if n, _, err := db.CountWhere(conds...); !errors.Is(err, ErrInvalidArgument) {
			t.Errorf("%s: CountWhere = %d, %v; want an error wrapping ErrInvalidArgument", name, n, err)
		}
	}
	if after := db.Stats().QuerySeconds; after != queriesBefore {
		t.Errorf("failed rewrites charged the query meter: %v -> %v", queriesBefore, after)
	}
}
