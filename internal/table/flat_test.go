package table

import "testing"

func TestFlatAppendAndViews(t *testing.T) {
	f := NewFlat(3, 4)
	f.AppendRow(Row{1, 2, 3})
	f.AppendRow(Row{4, 5, 6})
	f.AppendZeroRows(1)
	if f.Rows() != 3 || f.Arity() != 3 {
		t.Fatalf("rows=%d arity=%d", f.Rows(), f.Arity())
	}
	if !f.Row(1).Equal(Row{4, 5, 6}) {
		t.Errorf("row 1 = %v", f.Row(1))
	}
	if !f.Row(2).Equal(Row{0, 0, 0}) {
		t.Errorf("zero row = %v", f.Row(2))
	}
	if f.At(0, 2) != 3 {
		t.Errorf("At(0,2) = %d", f.At(0, 2))
	}
	f.Row(0)[2] = 9
	if f.At(0, 2) != 9 {
		t.Errorf("write through the row view did not stick: %d", f.At(0, 2))
	}
}

func TestFlatAppendFromAndGrowStability(t *testing.T) {
	src := NewFlat(2, 2)
	src.AppendRow(Row{7, 8})
	dst := NewFlat(2, 0)
	dst.Grow(10)
	view := func() Row { dst.AppendFrom(src, 0); return dst.Row(dst.Rows() - 1) }
	first := view()
	for i := 0; i < 9; i++ {
		view()
	}
	// With Grow reserving the capacity up front, the first view must still
	// point at live storage.
	if !first.Equal(Row{7, 8}) {
		t.Errorf("row view invalidated by reserved appends: %v", first)
	}
}

func TestFlatCutPrefixAndTruncate(t *testing.T) {
	f := NewFlat(2, 4)
	for i := int64(0); i < 5; i++ {
		f.AppendRow(Row{i, 10 * i})
	}
	f.CutPrefix(2)
	if f.Rows() != 3 || !f.Row(0).Equal(Row{2, 20}) {
		t.Errorf("after cut: rows=%d first=%v", f.Rows(), f.Row(0))
	}
	f.CutPrefix(0) // no-op
	f.Truncate(1)
	if f.Rows() != 1 || !f.Row(0).Equal(Row{2, 20}) {
		t.Errorf("after truncate: rows=%d first=%v", f.Rows(), f.Row(0))
	}
	f.Reset()
	if f.Rows() != 0 {
		t.Errorf("reset left %d rows", f.Rows())
	}
}

func TestFlatArityMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("arity mismatch did not panic")
		}
	}()
	NewFlat(2, 0).AppendRow(Row{1})
}

func TestFlatZeroArity(t *testing.T) {
	f := NewFlat(0, 0)
	f.AppendZeroRows(2)
	f.AppendZeroRows(-1)
	if f.Rows() != 2 || len(f.Row(1)) != 0 {
		t.Errorf("zero-arity arena: rows=%d row len=%d", f.Rows(), len(f.Row(1)))
	}
	f.CutPrefix(1)
	if f.Rows() != 1 {
		t.Errorf("zero-arity cut: rows=%d", f.Rows())
	}
}

// TestFlatAppendZeroRowsOverRecycledStorage: rows appended into capacity a
// truncation freed must read zero, not the values that were there.
func TestFlatAppendZeroRowsOverRecycledStorage(t *testing.T) {
	f := NewFlat(2, 0)
	for i := range 5 {
		f.AppendRow(Row{int64(i + 1), -1})
	}
	f.Truncate(1)
	f.AppendZeroRows(3)
	f.AppendZeroRows(0)
	if f.Rows() != 4 || !f.Row(0).Equal(Row{1, -1}) {
		t.Fatalf("rows=%d row 0 = %v", f.Rows(), f.Row(0))
	}
	for i := 1; i < 4; i++ {
		if !f.Row(i).Equal(Row{0, 0}) {
			t.Errorf("row %d = %v, want zeros", i, f.Row(i))
		}
	}
}
