package workload

import (
	"math"
	"testing"

	"incshrink/internal/oblivious"
	"incshrink/internal/table"
)

func TestValidate(t *testing.T) {
	good := TPCDS(100, 1)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []func(*Config){
		func(c *Config) { c.Steps = 0 },
		func(c *Config) { c.UploadEvery = 0 },
		func(c *Config) { c.PairRate = -1 },
		func(c *Config) { c.MaxMultiplicity = 0 },
		func(c *Config) { c.Within = -1 },
		func(c *Config) { c.MaxLeft = 0 },
		func(c *Config) { c.MaxRight = 0 },
	}
	for i, mutate := range cases {
		c := TPCDS(100, 1)
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config passed validation", i)
		}
	}
}

func TestGenerateRejectsInvalid(t *testing.T) {
	c := TPCDS(100, 1)
	c.Steps = -1
	if _, err := Generate(c); err == nil {
		t.Fatal("Generate accepted invalid config")
	}
}

func TestTPCDSRateMatchesPaper(t *testing.T) {
	tr, err := Generate(TPCDS(2000, 7))
	if err != nil {
		t.Fatal(err)
	}
	m := float64(tr.TotalPairs) / float64(len(tr.Steps))
	if math.Abs(m-2.7) > 0.4 {
		t.Errorf("TPC-ds mean pairs/step = %v, want about 2.7", m)
	}
}

func TestCPDBRateMatchesPaper(t *testing.T) {
	tr, err := Generate(CPDB(2000, 7))
	if err != nil {
		t.Fatal(err)
	}
	m := float64(tr.TotalPairs) / float64(len(tr.Steps))
	if math.Abs(m-9.8) > 1.5 {
		t.Errorf("CPDB mean pairs/step = %v, want about 9.8", m)
	}
}

func TestTPCDSMultiplicityOne(t *testing.T) {
	tr, err := Generate(TPCDS(500, 3))
	if err != nil {
		t.Fatal(err)
	}
	// Every key appears at most once on each side, so multiplicity is 1.
	leftKeys := map[int64]int{}
	for _, r := range tr.LeftTable.All() {
		leftKeys[r.Row[ColKey]]++
	}
	for k, n := range leftKeys {
		if n > 1 {
			t.Fatalf("left key %d appears %d times", k, n)
		}
	}
	rightKeys := map[int64]int{}
	for _, r := range tr.RightTable.All() {
		rightKeys[r.Row[ColKey]]++
		if rightKeys[r.Row[ColKey]] > 1 {
			t.Fatalf("right key %d repeated in multiplicity-1 workload", r.Row[ColKey])
		}
	}
}

func TestCPDBMultiplicityAboveOne(t *testing.T) {
	tr, err := Generate(CPDB(1000, 3))
	if err != nil {
		t.Fatal(err)
	}
	rightKeys := map[int64]int{}
	maxMult := 0
	for _, r := range tr.RightTable.All() {
		rightKeys[r.Row[ColKey]]++
		if rightKeys[r.Row[ColKey]] > maxMult {
			maxMult = rightKeys[r.Row[ColKey]]
		}
	}
	if maxMult < 2 {
		t.Errorf("CPDB max multiplicity = %d, want > 1", maxMult)
	}
	if maxMult > 12 {
		t.Errorf("CPDB max multiplicity = %d, exceeds configured 12", maxMult)
	}
}

// TestGroundTruthMatchesOracle: the per-step increments must sum to exactly
// the hash-join oracle over the full relations.
func TestGroundTruthMatchesOracle(t *testing.T) {
	for _, cfg := range []Config{TPCDS(300, 5), CPDB(300, 5)} {
		tr, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		truth := tr.PrefixTruth()
		for _, checkT := range []int{0, 50, 150, 299} {
			oracle := table.JoinWithin(rowsOf(tr.LeftTable.Instance(checkT)), rowsOf(tr.RightTable.Instance(checkT)),
				ColKey, ColKey, ColTime, ColTime, cfg.Within)
			if truth[checkT] != oracle {
				t.Errorf("%s: t=%d prefix truth %d != oracle %d", cfg.Name, checkT, truth[checkT], oracle)
			}
		}
		if tr.TotalPairs != truth[len(truth)-1] {
			t.Errorf("%s: TotalPairs %d != final prefix %d", cfg.Name, tr.TotalPairs, truth[len(truth)-1])
		}
	}
}

func rowsOf(trs []table.TimedRow) []table.Row {
	out := make([]table.Row, len(trs))
	for i, tr := range trs {
		out[i] = tr.Row
	}
	return out
}

func TestUploadSchedule(t *testing.T) {
	tr, err := Generate(CPDB(50, 9))
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range tr.Steps {
		if (st.T+1)%5 != 0 && len(st.Left) > 0 {
			t.Fatalf("private upload at off-schedule step %d", st.T)
		}
	}
}

func TestUploadBlockSizeRespected(t *testing.T) {
	tr, err := Generate(TPCDS(1000, 11))
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range tr.Steps {
		if len(st.Left) > tr.Config.MaxLeft {
			t.Fatalf("step %d left upload %d exceeds block %d", st.T, len(st.Left), tr.Config.MaxLeft)
		}
		if len(st.Right) > tr.Config.MaxRight {
			t.Fatalf("step %d right upload %d exceeds block %d", st.T, len(st.Right), tr.Config.MaxRight)
		}
	}
}

func TestRecordIDsUnique(t *testing.T) {
	tr, err := Generate(TPCDS(500, 13))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int64]bool{}
	check := func(rs []oblivious.Record) {
		for _, r := range rs {
			if seen[r.ID] {
				t.Fatalf("duplicate record ID %d", r.ID)
			}
			seen[r.ID] = true
		}
	}
	for _, st := range tr.Steps {
		check(st.Left)
		check(st.Right)
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	a, _ := Generate(TPCDS(200, 21))
	b, _ := Generate(TPCDS(200, 21))
	if a.TotalPairs != b.TotalPairs {
		t.Error("same seed, different totals")
	}
	for i := range a.Steps {
		if len(a.Steps[i].Left) != len(b.Steps[i].Left) || a.Steps[i].NewPairs != b.Steps[i].NewPairs {
			t.Fatalf("step %d differs between identical seeds", i)
		}
	}
	c, _ := Generate(TPCDS(200, 22))
	if a.TotalPairs == c.TotalPairs && a.LeftTable.Len() == c.LeftTable.Len() {
		t.Error("different seeds produced identical traces (suspicious)")
	}
}

func TestSparseVariant(t *testing.T) {
	base, _ := Generate(TPCDS(1500, 31))
	sparse, _ := Generate(Sparse(TPCDS(1500, 31)))
	ratio := float64(sparse.TotalPairs) / float64(base.TotalPairs)
	if ratio < 0.05 || ratio > 0.2 {
		t.Errorf("sparse/base pair ratio = %v, want about 0.1", ratio)
	}
	if sparse.Config.Name != "tpcds-sparse" {
		t.Errorf("sparse name = %q", sparse.Config.Name)
	}
}

func TestBurstVariant(t *testing.T) {
	base, _ := Generate(TPCDS(1500, 31))
	burst, _ := Generate(Burst(TPCDS(1500, 31)))
	ratio := float64(burst.TotalPairs) / float64(base.TotalPairs)
	if ratio < 1.7 || ratio > 2.3 {
		t.Errorf("burst/base pair ratio = %v, want about 2", ratio)
	}
}

func TestScaleVariant(t *testing.T) {
	base, _ := Generate(TPCDS(1000, 41))
	double, _ := Generate(Scale(TPCDS(1000, 41), 2))
	half, _ := Generate(Scale(TPCDS(1000, 41), 0.5))
	if r := float64(double.TotalPairs) / float64(base.TotalPairs); r < 1.7 || r > 2.3 {
		t.Errorf("2x scale pair ratio = %v", r)
	}
	if r := float64(half.TotalPairs) / float64(base.TotalPairs); r < 0.35 || r > 0.65 {
		t.Errorf("0.5x scale pair ratio = %v", r)
	}
	if double.Config.MaxLeft < base.Config.MaxLeft {
		t.Error("scaling up must not shrink block sizes")
	}
	if half.Config.MaxLeft >= base.Config.MaxLeft {
		t.Error("scaling down must shrink block sizes")
	}
}

func TestPublicRightShipsEveryStep(t *testing.T) {
	tr, err := Generate(CPDB(50, 17))
	if err != nil {
		t.Fatal(err)
	}
	// Public right records must never be delayed: every generated right
	// record appears in the step at which it was received.
	total := 0
	for _, st := range tr.Steps {
		total += len(st.Right)
	}
	if total != tr.RightTable.Len() {
		t.Errorf("shipped %d right records, generated %d", total, tr.RightTable.Len())
	}
}

func BenchmarkGenerateTPCDS1K(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, _ = Generate(TPCDS(1000, int64(i)))
	}
}
