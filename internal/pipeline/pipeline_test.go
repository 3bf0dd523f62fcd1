package pipeline

import (
	"math"
	"math/rand"
	"testing"

	"incshrink/internal/mpc"
	"incshrink/internal/oblivious"
	"incshrink/internal/table"
)

func TestFilterEfficiency(t *testing.T) {
	e, err := FilterEfficiency(100, 25)
	if err != nil || e != 0.75 {
		t.Errorf("efficiency = %v, %v", e, err)
	}
	if _, err := FilterEfficiency(0, 0); err == nil {
		t.Error("zero input accepted")
	}
	if _, err := FilterEfficiency(10, 11); err == nil {
		t.Error("dummies > input accepted")
	}
	if _, err := FilterEfficiency(10, -1); err == nil {
		t.Error("negative dummies accepted")
	}
}

func TestJoinEfficiency(t *testing.T) {
	e, err := JoinEfficiency(100, 100, 20, 30)
	if err != nil || e != 0.75 {
		t.Errorf("efficiency = %v, %v", e, err)
	}
	if _, err := JoinEfficiency(0, 10, 0, 0); err == nil {
		t.Error("zero input accepted")
	}
	if _, err := JoinEfficiency(10, 10, 11, 0); err == nil {
		t.Error("overflowing dummies accepted")
	}
}

func TestQueryEfficiency(t *testing.T) {
	ops := []OperatorSpec{
		{Name: "filter", Weight: 0.5, InputSize: 100, DummyCoeff: 10},
		{Name: "join", Weight: 0.5, InputSize: 200, DummyCoeff: 40},
	}
	e, err := QueryEfficiency(ops, []float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	want := 0.5*(1-10.0/100) + 0.5*(1-40.0/200)
	if math.Abs(e-want) > 1e-12 {
		t.Errorf("efficiency = %v want %v", e, want)
	}
	if _, err := QueryEfficiency(ops, []float64{1}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := QueryEfficiency(ops, []float64{1, 0}); err == nil {
		t.Error("zero epsilon accepted")
	}
	// Dummy load clamps at the input size.
	e, err = QueryEfficiency(ops, []float64{1e-9, 1})
	if err != nil {
		t.Fatal(err)
	}
	if e < 0 {
		t.Errorf("efficiency %v went negative", e)
	}
}

func TestAllocateSumsToBudget(t *testing.T) {
	ops := []OperatorSpec{
		{Name: "a", Weight: 0.3, InputSize: 100, DummyCoeff: 5},
		{Name: "b", Weight: 0.7, InputSize: 400, DummyCoeff: 80},
		{Name: "c", Weight: 0.1, InputSize: 50, DummyCoeff: 0},
	}
	eps, err := Allocate(ops, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for i, e := range eps {
		if e <= 0 {
			t.Errorf("operator %d got non-positive epsilon %v", i, e)
		}
		sum += e
	}
	if math.Abs(sum-2.0) > 1e-9 {
		t.Errorf("allocations sum to %v, want 2.0", sum)
	}
	// The heavier dummy-load operator gets the larger share.
	if eps[1] <= eps[0] {
		t.Errorf("heavy operator got %v <= light operator %v", eps[1], eps[0])
	}
}

func TestAllocateUniformWhenNoDummyLoad(t *testing.T) {
	ops := []OperatorSpec{
		{Name: "a", Weight: 1, InputSize: 10, DummyCoeff: 0},
		{Name: "b", Weight: 1, InputSize: 10, DummyCoeff: 0},
	}
	eps, err := Allocate(ops, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(eps[0]-eps[1]) > 1e-12 {
		t.Errorf("uniform case not uniform: %v", eps)
	}
}

func TestAllocateValidation(t *testing.T) {
	if _, err := Allocate(nil, 1); err == nil {
		t.Error("empty operators accepted")
	}
	if _, err := Allocate([]OperatorSpec{{Name: "a", InputSize: 1}}, 0); err == nil {
		t.Error("zero budget accepted")
	}
	if _, err := Allocate([]OperatorSpec{{Name: "a", InputSize: 0}}, 1); err == nil {
		t.Error("invalid spec accepted")
	}
}

// TestAllocateMatchesGridSearch: the closed-form water-filling allocation
// must be at least as good as anything the brute-force grid finds.
func TestAllocateMatchesGridSearch(t *testing.T) {
	ops := []OperatorSpec{
		{Name: "filter", Weight: 0.4, InputSize: 100, DummyCoeff: 12},
		{Name: "join", Weight: 0.6, InputSize: 300, DummyCoeff: 90},
	}
	analytic, err := Allocate(ops, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := AllocateGrid(ops, 1.5, 2000)
	if err != nil {
		t.Fatal(err)
	}
	ea, _ := QueryEfficiency(ops, analytic)
	eg, _ := QueryEfficiency(ops, grid)
	if ea < eg-1e-4 {
		t.Errorf("analytic allocation efficiency %v below grid %v (alloc %v vs %v)", ea, eg, analytic, grid)
	}
}

func TestAllocateGridValidation(t *testing.T) {
	ops := []OperatorSpec{{Name: "a", Weight: 1, InputSize: 10, DummyCoeff: 1}}
	if _, err := AllocateGrid(ops, 1, 100); err == nil {
		t.Error("non-2-operator grid accepted")
	}
	two := append(ops, OperatorSpec{Name: "b", Weight: 1, InputSize: 10, DummyCoeff: 1})
	if _, err := AllocateGrid(two, 1, 1); err == nil {
		t.Error("resolution 1 accepted")
	}
}

func mkBatch(n int, realEvery int) *oblivious.Buffer {
	out := oblivious.GetBuffer(2)
	for i := 0; i < n; i++ {
		if i%realEvery == 0 {
			out.AppendRow(table.Row{int64(i), int64(i % 7)}, -1, -1)
		} else {
			out.AppendDummy()
		}
	}
	return out
}

func TestStageValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	meter := mpc.NewMeter(mpc.DefaultCostModel())
	pred := func(table.Row) bool { return true }
	if _, err := NewStage("x", 2, pred, 0, 1, 1, rng, meter); err == nil {
		t.Error("zero epsilon accepted")
	}
	if _, err := NewStage("x", 2, pred, 1, 0, 1, rng, meter); err == nil {
		t.Error("zero sensitivity accepted")
	}
	if _, err := NewStage("x", 2, pred, 1, 1, 0, rng, meter); err == nil {
		t.Error("zero interval accepted")
	}
	if _, err := NewStage("x", 2, nil, 1, 1, 1, rng, meter); err == nil {
		t.Error("nil predicate accepted")
	}
}

func TestStageSynchronizesOnSchedule(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	meter := mpc.NewMeter(mpc.DefaultCostModel())
	st, err := NewStage("filter", 2, func(r table.Row) bool { return r[1] < 3 }, 5.0, 1, 4, rng, meter)
	if err != nil {
		t.Fatal(err)
	}
	syncs := 0
	for tick := 0; tick < 40; tick++ {
		in := mkBatch(20, 2)
		st.Ingest(in)
		in.Release()
		if batch := st.Tick(); batch != nil {
			syncs++
			batch.Release()
			if (tick+1)%4 != 0 {
				t.Fatalf("sync at off-schedule tick %d", tick)
			}
		}
	}
	if syncs != 10 {
		t.Errorf("syncs = %d, want 10", syncs)
	}
	if st.Output().Real() == 0 {
		t.Error("no real tuples reached the stage output")
	}
}

func TestPipelineCascades(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	meter := mpc.NewMeter(mpc.DefaultCostModel())
	s1, _ := NewStage("keyRange", 2, func(r table.Row) bool { return r[0] < 40 }, 5, 1, 2, rng, meter)
	s2, _ := NewStage("modFilter", 2, func(r table.Row) bool { return r[1]%2 == 0 }, 5, 1, 4, rng, meter)
	p, err := NewPipeline(s1, s2)
	if err != nil {
		t.Fatal(err)
	}
	if p.Stages() != 2 {
		t.Error("stage count wrong")
	}
	for tick := 0; tick < 64; tick++ {
		in := mkBatch(16, 2)
		p.Ingest(in)
		in.Release()
		p.Tick()
	}
	final := p.Final()
	if final.Real() == 0 {
		t.Fatal("nothing reached the final stage")
	}
	// Every surviving tuple must satisfy both predicates.
	for out, i := final.Buffer(), 0; i < out.Len(); i++ {
		if r := out.Row(i); out.IsReal(i) && !(r[0] < 40 && r[1]%2 == 0) {
			t.Fatalf("tuple %v escaped the predicate chain", r)
		}
	}
	if got := p.TotalEpsilon(); math.Abs(got-10) > 1e-12 {
		t.Errorf("total epsilon %v, want 10", got)
	}
}

func TestPipelineValidation(t *testing.T) {
	if _, err := NewPipeline(); err == nil {
		t.Error("empty pipeline accepted")
	}
	if _, err := NewPipeline(nil); err == nil {
		t.Error("nil stage accepted")
	}
	rng := rand.New(rand.NewSource(9))
	meter := mpc.NewMeter(mpc.DefaultCostModel())
	pred := func(table.Row) bool { return true }
	a, _ := NewStage("a", 4, pred, 1, 1, 1, rng, meter)
	b, _ := NewStage("b", 2, pred, 1, 1, 1, rng, meter)
	if _, err := NewPipeline(a, b); err == nil {
		t.Error("arity-mismatched chain accepted")
	}
}

func TestStageIngestEmpty(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	st, _ := NewStage("x", 2, func(table.Row) bool { return true }, 1, 1, 1, rng, mpc.NewMeter(mpc.DefaultCostModel()))
	st.Ingest(nil) // must not panic or count anything
	if st.cache.Len() != 0 {
		t.Error("empty ingest grew the cache")
	}
}
