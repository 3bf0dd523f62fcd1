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
	// LeftTable and RightTable hold the full logical relations, used by
	// oracle recomputation in tests. (The NM baseline reads no relation: it
	// accumulates each step's NewPairs, the truth.)
	LeftTable, RightTable *table.Growing
	// TotalPairs is the total number of logical join pairs over the horizon.
	TotalPairs int
}

// LeftSchema and RightSchema describe stream rows.
var (
	LeftSchema  = table.MustSchema("left", "key", "time")
	RightSchema = table.MustSchema("right", "key", "time")
)

// Generate builds the full trace for a configuration.
func Generate(cfg Config) (*Trace, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	tr := &Trace{
		Config:     cfg,
		Steps:      make([]Step, cfg.Steps),
		LeftTable:  table.NewGrowing(LeftSchema),
		RightTable: table.NewGrowing(RightSchema),
	}

	var nextID int64 = 1
	var nextKey int64 = 1
	// pending holds left records scheduled to receive joining right records
	// at a later step (within the temporal window).
	type pendingJoin struct {
		key     int64
		dueStep int
		count   int
	}
	var pending []pendingJoin

	// Upload buffers: records received between uploads accumulate and ship
	// on the owner's schedule. Right-public relations ship every step (public
	// data needs no private synchronization).
	var leftBuf, rightBuf []oblivious.Record

	for t := 0; t < cfg.Steps; t++ {
		st := &tr.Steps[t]
		st.T = t

		// 1. New joining groups: a left record plus future right partners.
		groups := poisson(rng, cfg.PairRate/avgMultiplicity(cfg, rng))
		for g := 0; g < groups; g++ {
			key := nextKey
			nextKey++
			lrow := table.Row{key, int64(t)}
			leftBuf = append(leftBuf, oblivious.Record{ID: nextID, Row: lrow})
			nextID++
			if err := tr.LeftTable.Insert(t, lrow); err != nil {
				return nil, err
			}
			mult := 1
			if cfg.MaxMultiplicity > 1 {
				mult = 1 + rng.Intn(cfg.MaxMultiplicity)
			}
			// Spread the partners over the lag window so some arrive later.
			maxLag := cfg.MaxLag
			if maxLag == 0 {
				maxLag = cfg.Within
			}
			for m := 0; m < mult; m++ {
				lag := 0
				if maxLag > 0 {
					lag = rng.Intn(int(maxLag) + 1)
				}
				pending = append(pending, pendingJoin{key: key, dueStep: t + lag, count: 1})
			}
		}

		// 2. Emit due right partners.
		keep := pending[:0]
		for _, p := range pending {
			if p.dueStep != t {
				keep = append(keep, p)
				continue
			}
			rrow := table.Row{p.key, int64(t)}
			rightBuf = append(rightBuf, oblivious.Record{ID: nextID, Row: rrow})
			nextID++
			if err := tr.RightTable.Insert(t, rrow); err != nil {
				return nil, err
			}
			st.NewPairs += p.count
		}
		pending = keep

		// 3. Non-joining noise on both sides (fresh keys never reused).
		for i := poisson(rng, cfg.LeftNoiseRate); i > 0; i-- {
			lrow := table.Row{nextKey, int64(t)}
			nextKey++
			leftBuf = append(leftBuf, oblivious.Record{ID: nextID, Row: lrow})
			nextID++
			if err := tr.LeftTable.Insert(t, lrow); err != nil {
				return nil, err
			}
		}
		for i := poisson(rng, cfg.RightNoiseRate); i > 0; i-- {
			rrow := table.Row{nextKey, int64(t)}
			nextKey++
			rightBuf = append(rightBuf, oblivious.Record{ID: nextID, Row: rrow})
			nextID++
			if err := tr.RightTable.Insert(t, rrow); err != nil {
				return nil, err
			}
		}

		// 4. Ship uploads on schedule, truncating to the block size (any
		// overflow rides the next upload, mirroring a bounded uplink).
		if (t+1)%cfg.UploadEvery == 0 {
			st.Left, leftBuf = takeUpTo(leftBuf, cfg.MaxLeft)
			if cfg.RightPublic {
				st.Right, rightBuf = rightBuf, nil
			} else {
				st.Right, rightBuf = takeUpTo(rightBuf, cfg.MaxRight)
			}
		} else if cfg.RightPublic {
			st.Right, rightBuf = rightBuf, nil
		}
		tr.TotalPairs += st.NewPairs
	}
	return tr, nil
}

func takeUpTo(buf []oblivious.Record, n int) (head, rest []oblivious.Record) {
	if len(buf) <= n {
		return buf, nil
	}
	head = buf[:n:n]
	rest = append([]oblivious.Record(nil), buf[n:]...)
	return head, rest
}

func avgMultiplicity(cfg Config, _ *rand.Rand) float64 {
	if cfg.MaxMultiplicity <= 1 {
		return 1
	}
	// mult is uniform on 1..MaxMultiplicity.
	return (1 + float64(cfg.MaxMultiplicity)) / 2
}

// poisson draws from Poisson(lambda) via Knuth's method; adequate for the
// small rates used here.
func poisson(rng *rand.Rand, lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	l := math.Exp(-lambda)
	k := 0
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= l {
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
