package query

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"incshrink/internal/oblivious"
	"incshrink/internal/securearray"
	"incshrink/internal/table"
)

var viewSchema = table.MustSchema("view", "left.key", "left.time", "right.key", "right.time")

// view builds a padded materialized view: the given rows as real slots,
// then dummies that would match any naive predicate if the dummy bit were
// ignored.
func view(rows ...table.Row) *securearray.View {
	b := oblivious.NewBuffer(4, len(rows)+3)
	for _, r := range rows {
		b.AppendRow(r)
	}
	for i := 0; i < 3; i++ {
		b.AppendDummies(1)
	}
	v := securearray.NewView(4)
	v.Update(b)
	return v
}

func TestOpEvalAndString(t *testing.T) {
	cases := []struct {
		op   Op
		x, v int64
		want bool
		str  string
	}{
		{EQ, 5, 5, true, "="},
		{NE, 5, 5, false, "!="},
		{LT, 4, 5, true, "<"},
		{LE, 5, 5, true, "<="},
		{GT, 5, 5, false, ">"},
		{GE, 5, 5, true, ">="},
	}
	for _, tc := range cases {
		if got := tc.op.eval(tc.x, tc.v); got != tc.want {
			t.Errorf("%v.eval(%d,%d) = %v", tc.op, tc.x, tc.v, got)
		}
		if tc.op.String() != tc.str {
			t.Errorf("op string %q want %q", tc.op.String(), tc.str)
		}
	}
	if Op(99).String() != "?" || Op(99).eval(1, 1) {
		t.Error("unknown op handling wrong")
	}
}

func TestRewriteResolvesColumns(t *testing.T) {
	q := Count{Conds: []Cond{
		{Col: "right.time", DiffCol: "left.time", Op: LE, Val: 10},
		{Col: "left.key", Op: GT, Val: 100},
	}}
	c, err := Rewrite(q, viewSchema)
	if err != nil {
		t.Fatal(err)
	}
	if c.Query().String() != "SELECT COUNT(*) FROM view WHERE right.time - left.time <= 10 AND left.key > 100" {
		t.Errorf("rendered query: %s", c.Query())
	}
}

func TestRewriteRejectsUnknownOperator(t *testing.T) {
	for _, op := range []Op{-1, GE + 1, 17} {
		_, err := Rewrite(Count{Conds: []Cond{{Col: "left.key", Op: op, Val: 1}}}, viewSchema)
		if err == nil || !strings.Contains(err.Error(), "unknown operator") {
			t.Errorf("operator %d: got %v, want an unknown-operator error", int(op), err)
		}
	}
}

func TestRewriteRejectsUnknownColumns(t *testing.T) {
	if _, err := Rewrite(Count{Conds: []Cond{{Col: "price", Op: GT, Val: 1}}}, viewSchema); err == nil {
		t.Error("unknown column accepted")
	}
	if _, err := Rewrite(Count{Conds: []Cond{{Col: "left.key", DiffCol: "price", Op: GT, Val: 1}}}, viewSchema); err == nil {
		t.Error("unknown diff column accepted")
	}
}

func TestExecuteCountsOnlyMatchingReals(t *testing.T) {
	// Rows: {lkey, ltime, rkey, rtime}.
	es := view(
		table.Row{1, 100, 1, 105}, // within 10
		table.Row{2, 100, 2, 115}, // outside
		table.Row{3, 200, 3, 200}, // within
	)
	q := Count{Conds: []Cond{{Col: "right.time", DiffCol: "left.time", Op: LE, Val: 10}}}
	c, err := Rewrite(q, viewSchema)
	if err != nil {
		t.Fatal(err)
	}
	if got := es.Count(c.Conds()); got != 2 {
		t.Errorf("view count = %d, want 2", got)
	}
}

func TestDummySlotsNeverCount(t *testing.T) {
	// A predicate every dummy row (all zeros) satisfies must still exclude
	// dummies via the isView bit.
	es := view(table.Row{1, 1, 1, 1})
	q := Count{Conds: []Cond{{Col: "left.key", Op: GE, Val: 0}}}
	c, _ := Rewrite(q, viewSchema)
	if got := es.Count(c.Conds()); got != 1 {
		t.Errorf("count = %d, dummies leaked into the answer", got)
	}
}

func TestEmptyConjunctionCountsAll(t *testing.T) {
	es := view(table.Row{1, 1, 1, 1}, table.Row{2, 2, 2, 2})
	c, err := Rewrite(Count{}, viewSchema)
	if err != nil {
		t.Fatal(err)
	}
	if got := es.Count(c.Conds()); got != 2 {
		t.Errorf("unconditional count = %d", got)
	}
	if !strings.Contains(c.Query().String(), "SELECT COUNT(*)") {
		t.Error("rendering broken")
	}
}

func TestOracleMatchesExecute(t *testing.T) {
	rows := []table.Row{
		{1, 100, 1, 104},
		{2, 100, 2, 111},
		{3, 50, 3, 55},
		{4, 10, 4, 10},
	}
	q := Count{Conds: []Cond{
		{Col: "right.time", DiffCol: "left.time", Op: LE, Val: 5},
		{Col: "left.key", Op: NE, Val: 4},
	}}
	c, err := Rewrite(q, viewSchema)
	if err != nil {
		t.Fatal(err)
	}
	want := c.Oracle(rows)
	got := view(rows...).Count(c.Conds())
	if got != want {
		t.Errorf("view count = %d, Oracle = %d", got, want)
	}
	if want != 2 { // rows 1 and 3 (row 4 excluded by key)
		t.Errorf("oracle = %d, want 2", want)
	}
}

func TestCondString(t *testing.T) {
	c := Cond{Col: "a", Op: LT, Val: 3}
	if c.String() != "a < 3" {
		t.Errorf("plain cond: %q", c.String())
	}
	d := Cond{Col: "a", DiffCol: "b", Op: GE, Val: -1}
	if d.String() != "a - b >= -1" {
		t.Errorf("diff cond: %q", d.String())
	}
}

// edgeVals are the cells and constants the differential test leans on: the
// ends of the int64 range, the sign change, and neighbours whose differences
// wrap around.
var edgeVals = []int64{math.MinInt64, math.MinInt64 + 1, -1, 0, 1, math.MaxInt64 - 1, math.MaxInt64}

func edgeOrSmall(rng *rand.Rand) int64 {
	if rng.Intn(3) == 0 {
		return rng.Int63n(21) - 10
	}
	return edgeVals[rng.Intn(len(edgeVals))]
}

// TestKernelMatchesOracle is the scan kernel's differential test: for every
// operator, with and without a difference column, over boundary constants
// and cells, conjunctions of zero to three conditions and view lengths
// around the kernel's 8-slot and 64-slot strides, View.Count of the compiled
// program equals the plaintext predicate counted over the real rows. Dummy
// slots carry payload as wild as the real ones, so an answer that ignored
// the flag column could not pass.
func TestKernelMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	cols := viewSchema.Columns
	randCond := func() Cond {
		c := Cond{Col: cols[rng.Intn(len(cols))], Op: Op(rng.Intn(6)), Val: edgeOrSmall(rng)}
		if rng.Intn(2) == 0 {
			c.DiffCol = cols[rng.Intn(len(cols))]
		}
		return c
	}
	lengths := []int{63, 64, 65, 127, 129, 120000}
	for n := 0; n <= 17; n++ {
		lengths = append(lengths, n)
	}
	for _, n := range lengths {
		b := oblivious.NewBuffer(4, n)
		var real []table.Row
		for i := 0; i < n; i++ {
			row := table.Row{edgeOrSmall(rng), edgeOrSmall(rng), edgeOrSmall(rng), edgeOrSmall(rng)}
			isReal := rng.Intn(2) == 0
			b.AppendSlot(row, isReal, -1, -1)
			if isReal {
				real = append(real, row)
			}
		}
		v := securearray.NewView(4)
		v.Update(b)

		queries := []Count{{}}
		for op := EQ; op <= GE; op++ {
			for _, val := range edgeVals {
				queries = append(queries,
					Count{Conds: []Cond{{Col: "right.time", Op: op, Val: val}}},
					Count{Conds: []Cond{{Col: "right.time", DiffCol: "left.time", Op: op, Val: val}}})
			}
		}
		for i := 0; i < 60; i++ {
			var q Count
			for k := rng.Intn(4); k > 0; k-- {
				q.Conds = append(q.Conds, randCond())
			}
			queries = append(queries, q)
		}
		for _, q := range queries {
			c, err := Rewrite(q, viewSchema)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := v.Count(c.Conds()), c.Oracle(real); got != want {
				t.Fatalf("n=%d %s: kernel counts %d, oracle %d", n, q, got, want)
			}
		}
	}
}
