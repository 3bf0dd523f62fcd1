// Package table provides the relational substrate of the reproduction: a
// small column-typed schema system, insert-only growing tables with logical
// timestamps (the paper's D = {D_t}), and a plaintext query engine used to
// compute ground-truth answers q_t(D_t) against which the view-based answers
// are scored (the L1 error of Section 4.1).
//
// Everything here is the *logical* side of the system. The secure side
// (secret-shared caches, oblivious operators) lives in internal/securearray
// and internal/oblivious; this package is deliberately free of any privacy
// machinery so it can serve as an oracle in tests.
package table

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
)

// Row is one relational tuple: a flat vector of 64-bit attributes. Schemas
// assign names to positions. Join outputs concatenate the operand rows.
type Row []int64

// Clone returns a deep copy of the row.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// Equal reports whether two rows have identical attributes.
func (r Row) Equal(o Row) bool {
	if len(r) != len(o) {
		return false
	}
	for i := range r {
		if r[i] != o[i] {
			return false
		}
	}
	return true
}

// Encode serializes the row with little-endian 64-bit words, prefixed by a
// 32-bit length. This is the byte payload that gets secret-shared when a
// tuple travels to the servers.
func (r Row) Encode() []byte {
	buf := make([]byte, 4+8*len(r))
	binary.LittleEndian.PutUint32(buf, uint32(len(r)))
	for i, v := range r {
		binary.LittleEndian.PutUint64(buf[4+8*i:], uint64(v))
	}
	return buf
}

// Schema names the columns of a relation.
type Schema struct {
	Name    string
	Columns []string
	index   map[string]int
}

// NewSchema builds a schema; column names must be unique.
func NewSchema(name string, columns ...string) (*Schema, error) {
	s := &Schema{Name: name, Columns: columns, index: make(map[string]int, len(columns))}
	for i, c := range columns {
		if _, dup := s.index[c]; dup {
			return nil, fmt.Errorf("table: duplicate column %q in schema %q", c, name)
		}
		s.index[c] = i
	}
	return s, nil
}

// MustSchema is NewSchema that panics on error, for package-level fixtures.
func MustSchema(name string, columns ...string) *Schema {
	s, err := NewSchema(name, columns...)
	if err != nil {
		panic(err)
	}
	return s
}

// Col returns the position of a named column.
func (s *Schema) Col(name string) (int, error) {
	i, ok := s.index[name]
	if !ok {
		return 0, fmt.Errorf("table: schema %q has no column %q", s.Name, name)
	}
	return i, nil
}

// Arity returns the number of columns.
func (s *Schema) Arity() int { return len(s.Columns) }

// TimedRow is a row plus the logical time at which the owner received it
// (the timestamp t_tid of Section 6).
type TimedRow struct {
	Time int
	Row  Row
}

// Growing is an insert-only relation: the formal growing database
// D = {u_i} of Definition 1 restricted to one schema. Rows are appended with
// non-decreasing timestamps; Instance(t) materializes D_t.
type Growing struct {
	Schema *Schema
	rows   []TimedRow
	maxT   int
}

// NewGrowing creates an empty growing relation.
func NewGrowing(s *Schema) *Growing {
	return &Growing{Schema: s, maxT: -1}
}

// ErrTimeRegression is returned when rows are inserted out of time order.
var ErrTimeRegression = errors.New("table: insert timestamp precedes an existing row")

// Insert appends a row at logical time t.
func (g *Growing) Insert(t int, r Row) error {
	if len(r) != g.Schema.Arity() {
		return fmt.Errorf("table: row arity %d does not match schema %q arity %d", len(r), g.Schema.Name, g.Schema.Arity())
	}
	if t < g.maxT {
		return fmt.Errorf("%w: t=%d after t=%d", ErrTimeRegression, t, g.maxT)
	}
	g.maxT = t
	g.rows = append(g.rows, TimedRow{Time: t, Row: r})
	return nil
}

// Len returns the total number of rows ever inserted.
func (g *Growing) Len() int { return len(g.rows) }

// Instance returns all rows with timestamp <= t (the database instance D_t).
// Rows are shared, not copied; callers must not mutate them.
func (g *Growing) Instance(t int) []TimedRow {
	// Rows are time-sorted; binary search for the cut.
	hi := sort.Search(len(g.rows), func(i int) bool { return g.rows[i].Time > t })
	return g.rows[:hi]
}

// All returns every row.
func (g *Growing) All() []TimedRow { return g.rows }

// Predicate selects rows.
type Predicate func(Row) bool

// CountRows returns the number of rows satisfying pred.
func CountRows(rs []Row, pred Predicate) int {
	n := 0
	for _, r := range rs {
		if pred(r) {
			n++
		}
	}
	return n
}

// HashJoin computes the plaintext equi-join of left and right on the given
// key columns, concatenating matched rows (left attributes first). It is the
// ground-truth oracle the oblivious joins are tested against.
func HashJoin(left, right []Row, leftKey, rightKey int) []Row {
	idx := make(map[int64][]Row)
	for _, r := range right {
		idx[r[rightKey]] = append(idx[r[rightKey]], r)
	}
	var out []Row
	for _, l := range left {
		for _, r := range idx[l[leftKey]] {
			j := make(Row, 0, len(l)+len(r))
			j = append(j, l...)
			j = append(j, r...)
			out = append(out, j)
		}
	}
	return out
}

// JoinWithin counts join pairs whose right-side time column falls within
// `within` of the left-side time column — the shape of the paper's Q1
// ("returned within 10 days") and Q2 ("award within 10 days of
// misconduct"). Both test queries are counts over such a temporal join.
func JoinWithin(left, right []Row, leftKey, rightKey, leftTime, rightTime int, within int64) int {
	idx := make(map[int64][]Row)
	for _, r := range right {
		idx[r[rightKey]] = append(idx[r[rightKey]], r)
	}
	n := 0
	for _, l := range left {
		for _, r := range idx[l[leftKey]] {
			d := r[rightTime] - l[leftTime]
			if d >= 0 && d <= within {
				n++
			}
		}
	}
	return n
}

// MultisetEqual reports whether two row collections are equal as multisets,
// used by correctness invariants (view + cache + dropped = logical join).
func MultisetEqual(a, b []Row) bool {
	if len(a) != len(b) {
		return false
	}
	count := make(map[string]int, len(a))
	for _, r := range a {
		count[string(r.Encode())]++
	}
	for _, r := range b {
		k := string(r.Encode())
		count[k]--
		if count[k] < 0 {
			return false
		}
	}
	return true
}
