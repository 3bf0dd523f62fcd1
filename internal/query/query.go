// Package query implements the view-based query answering layer of KI-1:
// logical counting queries over the join are rewritten as queries over the
// materialized view and executed with a single oblivious scan. A query is a
// conjunction of comparisons over named columns; the rewriter resolves the
// names against the view schema and reports queries the view cannot answer
// (columns the view definition did not materialize).
package query

import (
	"fmt"

	"incshrink/internal/mpc"
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

// Compiled is a query rewritten against a concrete view schema, ready to
// execute over view slots or oracle rows.
type Compiled struct {
	query Count
	preds []compiledCond
}

type compiledCond struct {
	col, diff int // column positions; diff = -1 when absent
	op        Op
	val       int64
}

// Rewrite resolves the query's column names against the view schema. It
// fails when the query references columns the materialized view does not
// carry — those queries cannot be answered from the view and would need the
// NM path.
func Rewrite(q Count, schema *table.Schema) (*Compiled, error) {
	c := &Compiled{query: q}
	for _, cond := range q.Conds {
		col, err := schema.Col(cond.Col)
		if err != nil {
			return nil, fmt.Errorf("query: cannot rewrite %q over view %q: %w", cond, schema.Name, err)
		}
		diff := -1
		if cond.DiffCol != "" {
			diff, err = schema.Col(cond.DiffCol)
			if err != nil {
				return nil, fmt.Errorf("query: cannot rewrite %q over view %q: %w", cond, schema.Name, err)
			}
		}
		c.preds = append(c.preds, compiledCond{col: col, diff: diff, op: cond.Op, val: cond.Val})
	}
	return c, nil
}

// Predicate returns the row predicate of the compiled query.
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

// ExecuteBuffer answers the query over the padded view arena with one
// oblivious scan, charging the meter under OpQuery (the engine's own query
// path routes the same compiled predicate through
// core.Framework.QueryWhere, which additionally tracks per-engine query
// metrics). The predicate evaluates against zero-copy row views into the
// arena.
func (c *Compiled) ExecuteBuffer(view *oblivious.Buffer, meter *mpc.Meter) int {
	return oblivious.CountBuffer(view, c.Predicate(), meter, mpc.OpQuery)
}

// Oracle answers the query over plaintext logical join rows — the ground
// truth for L1 error measurement.
func (c *Compiled) Oracle(rows []table.Row) int {
	return table.CountRows(rows, c.Predicate())
}

// Query returns the original logical query.
func (c *Compiled) Query() Count { return c.query }
