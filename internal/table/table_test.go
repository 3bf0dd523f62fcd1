package table

import "testing"

func TestRowCloneEqual(t *testing.T) {
	r := Row{1, 2, 3}
	c := r.Clone()
	if !r.Equal(c) {
		t.Fatal("clone not equal")
	}
	c[0] = 99
	if r.Equal(c) {
		t.Fatal("clone shares storage")
	}
	if r.Equal(Row{1, 2}) {
		t.Fatal("different arity equal")
	}
}

func TestSchemaBasics(t *testing.T) {
	s, err := NewSchema("sales", "pid", "date", "amount")
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Columns) != 3 {
		t.Errorf("columns = %v", s.Columns)
	}
	i, err := s.Col("date")
	if err != nil || i != 1 {
		t.Errorf("Col(date) = %d, %v", i, err)
	}
	if _, err := s.Col("nope"); err == nil {
		t.Error("missing column should error")
	}
}

func TestSchemaDuplicateColumn(t *testing.T) {
	if _, err := NewSchema("x", "a", "a"); err == nil {
		t.Error("duplicate column should error")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustSchema should panic on duplicate")
		}
	}()
	MustSchema("x", "a", "a")
}

func TestCountRows(t *testing.T) {
	even := func(r Row) bool { return r[0]%2 == 0 }
	if CountRows([]Row{{2}, {4}, {5}}, even) != 2 {
		t.Error("CountRows wrong")
	}
}

func TestHashJoin(t *testing.T) {
	left := []Row{{1, 100}, {2, 200}, {1, 101}}
	right := []Row{{1, 900}, {3, 300}}
	out := HashJoin(left, right, 0, 0)
	if len(out) != 2 {
		t.Fatalf("join produced %d rows, want 2", len(out))
	}
	for _, r := range out {
		if len(r) != 4 || r[0] != 1 || r[2] != 1 {
			t.Errorf("bad join row %v", r)
		}
	}
}

func TestHashJoinMultiplicity(t *testing.T) {
	left := []Row{{7, 0}}
	right := []Row{{7, 1}, {7, 2}, {7, 3}}
	out := HashJoin(left, right, 0, 0)
	if len(out) != 3 {
		t.Errorf("multiplicity join = %d rows, want 3", len(out))
	}
}

func TestJoinWithin(t *testing.T) {
	// sale (pid, date); return (pid, date). Count returns within 10 days.
	sales := []Row{{1, 100}, {2, 100}, {3, 100}}
	rets := []Row{{1, 105}, {2, 115}, {3, 95}} // within, late, before
	got := JoinWithin(sales, rets, 0, 0, 1, 1, 10)
	if got != 1 {
		t.Errorf("JoinWithin = %d, want 1", got)
	}
}

func TestJoinWithinBoundary(t *testing.T) {
	sales := []Row{{1, 100}}
	rets := []Row{{1, 110}, {1, 111}, {1, 100}}
	if got := JoinWithin(sales, rets, 0, 0, 1, 1, 10); got != 2 {
		t.Errorf("boundary JoinWithin = %d, want 2 (d=10 and d=0 count, d=11 not)", got)
	}
}

func TestMultisetEqual(t *testing.T) {
	a := []Row{{1}, {2}, {2}}
	b := []Row{{2}, {1}, {2}}
	if !MultisetEqual(a, b) {
		t.Error("permuted multisets should be equal")
	}
	if MultisetEqual(a, []Row{{1}, {2}, {3}}) {
		t.Error("different multisets reported equal")
	}
	if MultisetEqual(a, []Row{{1}, {2}}) {
		t.Error("different sizes reported equal")
	}
	if !MultisetEqual(nil, nil) {
		t.Error("empty multisets should be equal")
	}
}

func BenchmarkHashJoin1K(b *testing.B) {
	left := make([]Row, 1024)
	right := make([]Row, 1024)
	for i := range left {
		left[i] = Row{int64(i % 256), int64(i)}
		right[i] = Row{int64(i % 256), int64(i)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = HashJoin(left, right, 0, 0)
	}
}

func BenchmarkRowEncode(b *testing.B) {
	r := Row{1, 2, 3, 4, 5, 6}
	for i := 0; i < b.N; i++ {
		_ = r.Encode()
	}
}
