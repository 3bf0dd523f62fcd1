// Package query implements the view-based query answering layer of KI-1:
// logical counting queries over the join are rewritten as queries over the
// materialized view and executed with a single oblivious scan. A query is a
// conjunction of comparisons over named columns; the rewriter resolves the
// names against the view schema, reports queries the view cannot answer
// (columns the view definition did not materialize), and lowers each
// comparison to the range test the scan kernel evaluates — a condition
// program (oblivious.ScanCond), not a closure.
package query

import (
	"fmt"
	"math"

	"incshrink/internal/oblivious"
	"incshrink/internal/table"
)

// Op is a comparison operator.
type Op int

// The supported comparison operators.
const (
	EQ Op = iota
	NE
	LT
	LE
	GT
	GE
)

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o {
	case EQ:
		return "="
	case NE:
		return "!="
	case LT:
		return "<"
	case LE:
		return "<="
	case GT:
		return ">"
	case GE:
		return ">="
	default:
		return "?"
	}
}

func (o Op) eval(x, v int64) bool {
	switch o {
	case EQ:
		return x == v
	case NE:
		return x != v
	case LT:
		return x < v
	case LE:
		return x <= v
	case GT:
		return x > v
	case GE:
		return x >= v
	default:
		return false
	}
}

// Cond is one comparison: column <op> value. DiffCol, when non-empty, makes
// the left operand the difference Col - DiffCol instead (the paper's Q1/Q2
// shape "Returns.ReturnDate - Sales.SaleDate <= 10").
type Cond struct {
	Col     string
	DiffCol string
	Op      Op
	Val     int64
}

// String renders the condition as SQL-ish text.
func (c Cond) String() string {
	if c.DiffCol != "" {
		return fmt.Sprintf("%s - %s %s %d", c.Col, c.DiffCol, c.Op, c.Val)
	}
	return fmt.Sprintf("%s %s %d", c.Col, c.Op, c.Val)
}

// Count is a logical counting query: COUNT(*) over the view definition's
// join, filtered by a conjunction of conditions.
type Count struct {
	Conds []Cond
}

// String renders the query.
func (q Count) String() string {
	s := "SELECT COUNT(*) FROM view"
	for i, c := range q.Conds {
		if i == 0 {
			s += " WHERE "
		} else {
			s += " AND "
		}
		s += c.String()
	}
	return s
}

// Compiled is a query rewritten against a concrete view schema: the
// condition program the view scan runs, and beside it the plaintext row
// predicate that is the scan's ground truth.
type Compiled struct {
	query Count
	preds []compiledCond
	conds []oblivious.ScanCond
}

type compiledCond struct {
	col, diff int // column positions; diff = -1 when absent
	op        Op
	val       int64
}

// Lower resolves one condition against the view schema and lowers it to the
// kernel's range test. In the sign-flipped unsigned domain (x ^ 1<<63 is
// order-preserving from int64) every operator is membership in one closed
// range or in its complement: EQ/NE [v, v], LE/GT [0, v], GE/LT [v, max],
// with NE, GT and LT inverted. It fails when the condition references a
// column the materialized view does not carry — such a query cannot be
// answered from the view and would need the NM path — or an operator that
// does not exist.
func Lower(cond Cond, schema *table.Schema) (oblivious.ScanCond, error) {
	col, err := schema.Col(cond.Col)
	diff := -1
	if err == nil && cond.DiffCol != "" {
		diff, err = schema.Col(cond.DiffCol)
	}
	if err != nil {
		return oblivious.ScanCond{}, fmt.Errorf("query: cannot rewrite %q over view %q: %w", cond, schema.Name, err)
	}
	v := uint64(cond.Val) ^ 1<<63
	sc := oblivious.ScanCond{Col: col, Diff: diff, Lo: v, Hi: v}
	switch cond.Op {
	case EQ, NE:
	case LE, GT:
		sc.Lo = 0
	case GE, LT:
		sc.Hi = math.MaxUint64
	default:
		return oblivious.ScanCond{}, fmt.Errorf("query: cannot rewrite %q over view %q: unknown operator %d", cond, schema.Name, int(cond.Op))
	}
	sc.Invert = cond.Op == NE || cond.Op == GT || cond.Op == LT
	return sc, nil
}

// Rewrite lowers every condition of the query (see Lower), failing on the
// first the view cannot answer.
func Rewrite(q Count, schema *table.Schema) (*Compiled, error) {
	c := &Compiled{query: q}
	for _, cond := range q.Conds {
		sc, err := Lower(cond, schema)
		if err != nil {
			return nil, err
		}
		c.conds = append(c.conds, sc)
		c.preds = append(c.preds, compiledCond{col: sc.Col, diff: sc.Diff, op: cond.Op, val: cond.Val})
	}
	return c, nil
}

// Conds returns the compiled condition program, the argument of
// core.Framework.QueryWhere and securearray.View.Count.
func (c *Compiled) Conds() []oblivious.ScanCond { return c.conds }

// Predicate returns the plaintext row predicate of the compiled query — the
// oracle the scan kernel is tested against, never the scan itself.
func (c *Compiled) Predicate() table.Predicate {
	preds := c.preds
	return func(r table.Row) bool {
		for _, p := range preds {
			x := r[p.col]
			if p.diff >= 0 {
				x -= r[p.diff]
			}
			if !p.op.eval(x, p.val) {
				return false
			}
		}
		return true
	}
}

// Oracle answers the query over plaintext logical join rows — the ground
// truth for L1 error measurement.
func (c *Compiled) Oracle(rows []table.Row) int {
	return table.CountRows(rows, c.Predicate())
}

// Query returns the original logical query.
func (c *Compiled) Query() Count { return c.query }
