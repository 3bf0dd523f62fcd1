// Package workload synthesizes the growing-data streams the paper evaluates
// on. The real datasets (TPC-ds Sales/Return and the Chicago Police
// Database) are not redistributable here, so the generators reproduce the
// statistics the experiments actually depend on — the paper itself reduces
// the data to them (Section 7 "Default setting"):
//
//   - TPC-ds-like: two private streams (sales and returns) uploaded daily,
//     join multiplicity 1 ("Q1 has multiplicity 1"), an average of 2.7 new
//     view entries per time step, temporal join window of 10 days.
//   - CPDB-like: a private Allegation stream uploaded every 5 days joined
//     against a public Award relation, join multiplicity up to 12 (so the
//     default omega = 10 truncates a little), an average of 9.8 new view
//     entries per time step.
//
// Variants implement Section 7.3 (Sparse = 10% of the view entries, Burst =
// 2x) and Section 7.5 scaling (50%, 1x, 2x, 4x). All generation is
// deterministic given the seed.
//
// A trace is stored per side, not per row: each side's records are one
// slice in generation order, their rows capped views of one arena, so the
// growing database's instance D_t is a prefix of each side. Uploads are
// FIFO, so every step's upload is a capped view of the same slice, cut once
// the horizon is generated.
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"incshrink/internal/oblivious"
	"incshrink/internal/table"
)

// Column layout of stream rows: {join key, event time}. Join output rows are
// the concatenation {lkey, ltime, rkey, rtime}.
const (
	ColKey  = 0
	ColTime = 1
	// StreamArity is the number of columns in a stream row.
	StreamArity = 2
	// JoinArity is the number of columns in a view (join) row.
	JoinArity = 2 * StreamArity
)

// Step is everything the owners hand the servers at one time step, plus the
// ground truth the simulator scores against.
type Step struct {
	T int
	// Left and Right are the real records received this step (empty when the
	// owner's upload schedule skips the step). The secure layer pads uploads
	// to the fixed block sizes in Config.
	Left  []oblivious.Record
	Right []oblivious.Record
	// NewPairs is the number of logical join pairs (untruncated) created at
	// this step: the increment of q_t(D_t) for the standing count query.
	NewPairs int
}

// Config parameterizes a generator.
type Config struct {
	Name string
	// Steps is the number of time steps to generate.
	Steps int
	// UploadEvery is the owners' upload period in steps (1 = daily).
	UploadEvery int
	// PairRate is the mean number of new logical join pairs per *step*
	// (2.7 for TPC-ds-like, 9.8 for CPDB-like).
	PairRate float64
	// MaxMultiplicity is the largest number of right records that join one
	// left record (1 for TPC-ds-like Q1).
	MaxMultiplicity int
	// LeftNoiseRate and RightNoiseRate are mean non-joining records per step
	// on each side, so the streams carry realistic non-matching volume.
	LeftNoiseRate, RightNoiseRate float64
	// Within is the temporal join window in steps ("within 10 days").
	Within int64
	// MaxLag is the largest delay between a left record and its joining
	// right partners (0 = Within). Real temporal joins are front-loaded —
	// most returns/awards follow quickly — and the contribution-budget
	// window (b/omega upload cycles) only covers partners arriving while
	// the left record still holds budget, so MaxLag also controls how much
	// of the stream the budget mechanism can ever capture.
	MaxLag int64
	// MaxLeft and MaxRight are the fixed upload block sizes C_r per side:
	// every upload is padded to exactly this many records by the framework.
	MaxLeft, MaxRight int
	// RightPublic marks the right relation as public (the CPDB Award table):
	// its records are not padded, carry no contribution budget of their own,
	// and are visible to the servers in the clear.
	RightPublic bool
	// RightDrivesPairs marks traces whose new join pairs (almost) all involve
	// a newly uploaded right record, as in TPC-ds Q1, where a return follows
	// its sale; core.ShapeOf declares it to the engine as its delta cap.
	RightDrivesPairs bool
	Seed             int64
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.Steps <= 0:
		return fmt.Errorf("workload %q: Steps must be positive, got %d", c.Name, c.Steps)
	case c.UploadEvery <= 0:
		return fmt.Errorf("workload %q: UploadEvery must be positive, got %d", c.Name, c.UploadEvery)
	case c.PairRate < 0:
		return fmt.Errorf("workload %q: PairRate must be non-negative, got %v", c.Name, c.PairRate)
	case c.MaxMultiplicity < 1:
		return fmt.Errorf("workload %q: MaxMultiplicity must be at least 1, got %d", c.Name, c.MaxMultiplicity)
	case c.Within < 0:
		return fmt.Errorf("workload %q: Within must be non-negative, got %d", c.Name, c.Within)
	case c.MaxLag < 0 || c.MaxLag > c.Within:
		return fmt.Errorf("workload %q: MaxLag must lie in [0, Within], got %d", c.Name, c.MaxLag)
	case c.MaxLeft < 1 || c.MaxRight < 1:
		return fmt.Errorf("workload %q: block sizes must be positive, got %d/%d", c.Name, c.MaxLeft, c.MaxRight)
	}
	return nil
}

// TPCDS returns the TPC-ds-like configuration of Section 7 with the given
// horizon: daily uploads, multiplicity 1, mean 2.7 view entries per step.
func TPCDS(steps int, seed int64) Config {
	return Config{
		Name:             "tpcds",
		Steps:            steps,
		UploadEvery:      1,
		PairRate:         2.7,
		MaxMultiplicity:  1,
		LeftNoiseRate:    28.0, // sales volume dwarfs returns, as in TPC-ds
		RightNoiseRate:   1.0,
		Within:           10,
		MaxLag:           9,
		MaxLeft:          96,
		MaxRight:         8,
		RightDrivesPairs: true,
		Seed:             seed,
	}
}

// CPDB returns the CPDB-like configuration: uploads every 5 steps, public
// right relation (Award), multiplicity up to 15, mean 9.8 view entries per
// step.
func CPDB(steps int, seed int64) Config {
	return Config{
		Name:            "cpdb",
		Steps:           steps,
		UploadEvery:     5,
		PairRate:        9.8,
		MaxMultiplicity: 12,
		LeftNoiseRate:   1.5,
		RightNoiseRate:  2.0,
		Within:          10,
		MaxLag:          5,
		MaxLeft:         24,
		MaxRight:        56,
		RightPublic:     true,
		Seed:            seed,
	}
}

// Sparse derives the Section 7.3 sparse variant: 10% of the view entries.
func Sparse(c Config) Config {
	c.Name += "-sparse"
	c.PairRate *= 0.1
	return c
}

// Burst derives the Section 7.3 burst variant: 2x the view entries.
func Burst(c Config) Config {
	c.Name += "-burst"
	c.PairRate *= 2
	return c
}

// Scale derives the Section 7.5 scaling variants by multiplying all arrival
// rates and the upload block sizes by factor (blocks never drop below one
// record). Because Transform's cost is driven by the public block sizes,
// scaling them is what makes total MPC time track the data volume.
func Scale(c Config, factor float64) Config {
	c.Name = fmt.Sprintf("%s-%gx", c.Name, factor)
	c.PairRate *= factor
	c.LeftNoiseRate *= factor
	c.RightNoiseRate *= factor
	scaleBlock := func(n int) int {
		v := int(math.Ceil(float64(n) * factor))
		if v < 1 {
			v = 1
		}
		return v
	}
	c.MaxLeft = scaleBlock(c.MaxLeft)
	c.MaxRight = scaleBlock(c.MaxRight)
	return c
}

// Trace is a fully generated workload: the per-step uploads plus the
// plaintext relations for ground-truth queries.
type Trace struct {
	Config Config
	Steps  []Step
	// LeftTable and RightTable are the full logical relations in generation
	// order, non-decreasing in ColTime: D_t is each side's prefix with time
	// <= t, and every step's Left (Right) is a capped view of LeftTable
	// (RightTable), the uploads concatenated a prefix of it. Oracle
	// recomputation in tests reads them. (The NM baseline reads no relation:
	// it accumulates each step's NewPairs, the truth.)
	LeftTable, RightTable []oblivious.Record
	// TotalPairs is the total number of logical join pairs over the horizon.
	TotalPairs int
}

// relation is one side as it is generated: its records in generation order,
// their rows in one arena, and how many of them have shipped. Records point
// at their rows only once the arena stops growing.
type relation struct {
	recs    []oblivious.Record
	rows    *table.Flat
	shipped int
}

// newRelation reserves room for the records a horizon of steps is expected
// to generate at perStep a step, with slack for the draws above the mean.
func newRelation(steps int, perStep float64) *relation {
	n := int(1.1*perStep*float64(steps)) + 64
	return &relation{recs: make([]oblivious.Record, 0, n), rows: table.NewFlat(StreamArity, n)}
}

func (r *relation) add(id, key int64, t int) {
	r.recs = append(r.recs, oblivious.Record{ID: id})
	r.rows.AppendRow(table.Row{key, int64(t)})
}

// ship uploads up to n of the records not yet shipped, oldest first (any
// overflow rides the next upload, mirroring a bounded uplink).
func (r *relation) ship(n int) {
	r.shipped += min(len(r.recs)-r.shipped, n)
}

// seal points every record's Row at its capped view of the arena, now that
// the arena is final.
func (r *relation) seal() []oblivious.Record {
	for i := range r.recs {
		r.recs[i].Row = r.rows.Row(i)
	}
	return r.recs
}

// Generate builds the full trace for a configuration.
func Generate(cfg Config) (*Trace, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	tr := &Trace{Config: cfg, Steps: make([]Step, cfg.Steps)}
	groupRate := cfg.PairRate / avgMultiplicity(cfg)
	groups, leftNoise, rightNoise := newPoisson(groupRate), newPoisson(cfg.LeftNoiseRate), newPoisson(cfg.RightNoiseRate)
	left := newRelation(cfg.Steps, groupRate+cfg.LeftNoiseRate)
	right := newRelation(cfg.Steps, cfg.PairRate+cfg.RightNoiseRate)
	// Spread a left record's partners over the lag window so some arrive
	// later.
	maxLag := cfg.MaxLag
	if maxLag == 0 {
		maxLag = cfg.Within
	}
	// ends[t] is where step t's uploads end on each side; the views are cut
	// once both relations are final.
	ends := make([][2]int, cfg.Steps)

	var nextID int64 = 1
	var nextKey int64 = 1
	// pending holds left records scheduled to receive joining right records
	// at a later step (within the temporal window).
	type pendingJoin struct {
		key     int64
		dueStep int
	}
	var pending []pendingJoin

	for t := 0; t < cfg.Steps; t++ {
		st := &tr.Steps[t]
		st.T = t

		// 1. New joining groups: a left record plus future right partners.
		for g := groups.draw(rng); g > 0; g-- {
			key := nextKey
			nextKey++
			left.add(nextID, key, t)
			nextID++
			mult := 1
			if cfg.MaxMultiplicity > 1 {
				mult = 1 + rng.Intn(cfg.MaxMultiplicity)
			}
			for m := 0; m < mult; m++ {
				lag := 0
				if maxLag > 0 {
					lag = rng.Intn(int(maxLag) + 1)
				}
				pending = append(pending, pendingJoin{key: key, dueStep: t + lag})
			}
		}

		// 2. Emit due right partners.
		keep := pending[:0]
		for _, p := range pending {
			if p.dueStep != t {
				keep = append(keep, p)
				continue
			}
			right.add(nextID, p.key, t)
			nextID++
			st.NewPairs++
		}
		pending = keep

		// 3. Non-joining noise on both sides (fresh keys never reused).
		for i := leftNoise.draw(rng); i > 0; i-- {
			left.add(nextID, nextKey, t)
			nextKey++
			nextID++
		}
		for i := rightNoise.draw(rng); i > 0; i-- {
			right.add(nextID, nextKey, t)
			nextKey++
			nextID++
		}

		// 4. Ship uploads on schedule, truncating to the block size. Public
		// right relations ship every step in full (public data needs no
		// private synchronization).
		if (t+1)%cfg.UploadEvery == 0 {
			left.ship(cfg.MaxLeft)
			if !cfg.RightPublic {
				right.ship(cfg.MaxRight)
			}
		}
		if cfg.RightPublic {
			right.ship(len(right.recs))
		}
		ends[t] = [2]int{left.shipped, right.shipped}
		tr.TotalPairs += st.NewPairs
	}

	tr.LeftTable, tr.RightTable = left.seal(), right.seal()
	var from [2]int
	for t := range tr.Steps {
		st := &tr.Steps[t]
		st.Left = upload(tr.LeftTable, from[0], ends[t][0])
		st.Right = upload(tr.RightTable, from[1], ends[t][1])
		from = ends[t]
	}
	return tr, nil
}

// upload is the capped view recs[from:to] of one step's upload, nil when the
// step ships nothing.
func upload(recs []oblivious.Record, from, to int) []oblivious.Record {
	if from == to {
		return nil
	}
	return recs[from:to:to]
}

func avgMultiplicity(cfg Config) float64 {
	if cfg.MaxMultiplicity <= 1 {
		return 1
	}
	// mult is uniform on 1..MaxMultiplicity.
	return (1 + float64(cfg.MaxMultiplicity)) / 2
}

// poisson is a Poisson(lambda) rate with exp(-lambda), the bound Knuth's
// method draws against, computed once.
type poisson struct{ lambda, expNeg float64 }

func newPoisson(lambda float64) poisson { return poisson{lambda, math.Exp(-lambda)} }

// draw samples the rate via Knuth's method; adequate for the small rates
// used here.
func (r poisson) draw(rng *rand.Rand) int {
	if r.lambda <= 0 {
		return 0
	}
	k := 0
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= r.expNeg {
			return k
		}
		k++
		if k > 10000 { // safety valve; unreachable for sane lambda
			return k
		}
	}
}

// PrefixTruth returns the cumulative ground truth per step computed from the
// per-step increments.
func (tr *Trace) PrefixTruth() []int {
	out := make([]int, len(tr.Steps))
	sum := 0
	for i, st := range tr.Steps {
		sum += st.NewPairs
		out[i] = sum
	}
	return out
}
