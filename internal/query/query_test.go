package query

import (
	"strings"
	"testing"

	"incshrink/internal/mpc"
	"incshrink/internal/oblivious"
	"incshrink/internal/table"
)

var viewSchema = table.MustSchema("view", "left.key", "left.time", "right.key", "right.time")

// view builds a padded view arena: the given rows as real slots, then
// dummies that would match any naive predicate if the dummy bit were
// ignored.
func view(rows ...table.Row) *oblivious.Buffer {
	b := oblivious.NewBuffer(4, len(rows)+3)
	for _, r := range rows {
		b.AppendRow(r, -1, -1)
	}
	for i := 0; i < 3; i++ {
		b.AppendDummy()
	}
	return b
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
	m := mpc.NewMeter(mpc.DefaultCostModel())
	if got := c.ExecuteBuffer(es, m); got != 2 {
		t.Errorf("ExecuteBuffer = %d, want 2", got)
	}
	// One scan over every slot, dummies included, at the view's width.
	if want := float64(es.Len()) * 64 * 4 * m.Model().ANDGatesPerScanBit; m.Gates(mpc.OpQuery) != want {
		t.Errorf("execution charged %v gates, want %v", m.Gates(mpc.OpQuery), want)
	}
}

func TestDummySlotsNeverCount(t *testing.T) {
	// A predicate every dummy row (all zeros) satisfies must still exclude
	// dummies via the isView bit.
	es := view(table.Row{1, 1, 1, 1})
	q := Count{Conds: []Cond{{Col: "left.key", Op: GE, Val: 0}}}
	c, _ := Rewrite(q, viewSchema)
	if got := c.ExecuteBuffer(es, nil); got != 1 {
		t.Errorf("count = %d, dummies leaked into the answer", got)
	}
}

func TestEmptyConjunctionCountsAll(t *testing.T) {
	es := view(table.Row{1, 1, 1, 1}, table.Row{2, 2, 2, 2})
	c, err := Rewrite(Count{}, viewSchema)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.ExecuteBuffer(es, nil); got != 2 {
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
	got := c.ExecuteBuffer(view(rows...), nil)
	if got != want {
		t.Errorf("ExecuteBuffer = %d, Oracle = %d", got, want)
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
