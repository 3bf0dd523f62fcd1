// Package party runs one server's half of a deterministic two-party
// IncShrink protocol session over a transport, on a one-party mpc.Runtime
// (mpc.NewPartyRuntime): cmd/incshrink-party wraps one Session per OS
// process over TCP+TLS, the tests wrap two over an in-process loopback, and
// the contract — checked by the equivalence tests and the wire smoke — is
// that every observable output (opened values, transcripts, snapshots, wire
// tallies) is byte-identical across transports.
//
// The session script exercises every wire primitive the runtime and the GMW
// layer own: each step is one round, the shape of core's sDPTimer tick, that
// recovers the shared counter in-protocol, draws joint Laplace noise and
// re-shares the next counter; then transcript observations; then a GMW
// segment (offline tuple dealing plus online rounds of batched AND
// openings) evaluating the paper's counter-update, threshold and comparator
// circuits, whose four outputs are revealed in one round.
// The schedule is a pure function of the configuration, so the wire cost is
// predictable in closed form (Predict) and the smoke harness can hold
// measured conn counters to it.
package party

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"slices"
	"sync"

	"incshrink/internal/gmw"
	"incshrink/internal/mpc"
	"incshrink/internal/snapshot"
	"incshrink/internal/wire"
)

// Config parameterizes one session. Both parties must run identical
// configurations apart from Role.
type Config struct {
	// Role is the party index (0 or 1).
	Role int
	// Seed is the deployment seed shared by both parties; per-party streams
	// derive from it exactly as mpc.NewRuntime derives them.
	Seed int64
	// Steps is the number of runtime protocol steps.
	Steps int
	// SnapshotAt, when >= 0, captures a session snapshot (the party's runtime
	// and the step it runs next) after the step with that index completes;
	// the bytes land in Report.Snapshot.
	SnapshotAt int
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Role != 0 && c.Role != 1 {
		return fmt.Errorf("party: role must be 0 or 1, got %d", c.Role)
	}
	if c.Steps < 1 {
		return fmt.Errorf("party: steps must be positive, got %d", c.Steps)
	}
	if c.SnapshotAt >= c.Steps {
		return fmt.Errorf("party: snapshot step %d beyond horizon %d", c.SnapshotAt, c.Steps)
	}
	return nil
}

// gmwSchedule is the online schedule of the GMW segment, concatenated from
// the round shapes gmw declares: one CounterUpdate, one ThresholdCheck, one
// CompareExchange. The tuple budget (every dealt tuple feeds exactly one
// AND gate) and the wire prediction both derive from it.
var gmwSchedule = slices.Concat(gmw.AddShape, gmw.LessThanShape, gmw.CompareExchangeShape)

// gmwReveals is the round schedule of the GMW segment's output reveal: its
// four words go in one OpenWords frame each way, priced as a four-word round.
var gmwReveals = []int{4}

// stepRounds is the word count of each runtime round of one step: one round
// carries the counter re-share, the two joint noise words and the recovery
// of the counter the previous step re-shared.
var stepRounds = []int{4}

// Report is the deterministic outcome of one session, the unit the
// equivalence tests and the wire smoke compare across transports.
type Report struct {
	Role  int `json:"role"`
	Steps int `json:"steps"`
	// Opened collects every value revealed to the protocol layer, in order:
	// recovered counters, Laplace noise bit patterns, GMW outputs.
	Opened []uint32 `json:"opened"`
	// TranscriptSHA is the party's running transcript digest: SHA-256 over
	// every event it observed, wire stamps included.
	TranscriptSHA string `json:"transcript_sha"`
	// SnapshotSHA digests the final session snapshot: its versioned header,
	// the party's one-party runtime section and the step it would run next,
	// the horizon.
	SnapshotSHA string `json:"snapshot_sha"`
	// WireRounds / WireBytes are the connection counters at session end.
	WireRounds uint64 `json:"wire_rounds"`
	WireBytes  uint64 `json:"wire_bytes"`
	// GMWANDGates is the online AND-gate count of the GMW segment.
	GMWANDGates int `json:"gmw_and_gates"`
	// PredictedRounds / PredictedBytes are the closed-form wire predictions
	// for the configured schedule (see Predict).
	PredictedRounds uint64 `json:"predicted_rounds"`
	PredictedBytes  uint64 `json:"predicted_bytes"`
	// Snapshot holds the mid-run snapshot when Config.SnapshotAt requested
	// one (not serialized into reports).
	Snapshot []byte `json:"-"`
}

// Predict returns the modeled per-party wire cost of a session: the
// runtime rounds of every step, the GMW online opening rounds and output
// reveals, and the one offline tuple-block frame of gmw.TupleBytes per
// tuple (which rides ahead of the first AND round, so it adds bytes but no
// round).
func Predict(cfg Config) (rounds, bytes uint64) {
	step := mpc.PredictExchanges(stepRounds...)
	reveal := mpc.PredictExchanges(gmwReveals...)
	open := mpc.PredictOpenRounds(gmwSchedule)
	steps := uint64(cfg.Steps)
	return steps*step.Rounds + reveal.Rounds + open.Rounds,
		steps*step.Bytes + reveal.Bytes + open.Bytes + uint64(wire.FrameOverhead+gmw.TupleBytes*gmwSchedule.ANDs())
}

// counterValue is the deterministic counter plaintext step t recovers: step
// t-1 re-shares it, and counterValue(0) = 0 is the initial counter.
func counterValue(t int) uint32 { return uint32(t) * 2654435761 }

// Run executes a full session over conn and reports its observables.
func Run(cfg Config, conn wire.Conn) (*Report, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rt := mpc.NewPartyRuntime(mpc.PartyID(cfg.Role), cfg.Seed, mpc.DefaultCostModel(), conn)
	s := &session{cfg: cfg, rt: rt, conn: conn}
	return s.run(0)
}

// Resume restores a snapshot taken by a previous Run (Config.SnapshotAt)
// into a fresh one-party runtime over a fresh connection and completes the
// session from the step the snapshot names. A snapshot of another format
// version fails with snapshot.ErrVersionMismatch and one of another session
// (role, seed or horizon) with snapshot.ErrFingerprintMismatch, before the
// party sends anything. opened is the prefix of values the crashed run had
// already revealed to the protocol layer (three per completed step) — they
// were delivered before the crash, so the application persists them
// alongside the snapshot. The final report must be
// byte-identical to an uninterrupted run — the crash/rejoin contract.
func Resume(cfg Config, snap []byte, opened []uint32, conn wire.Conn) (*Report, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	d := snapshot.NewDecoder(bytes.NewReader(snap))
	fp, err := snapshot.ReadHeader(d)
	if err != nil {
		return nil, fmt.Errorf("party: restoring snapshot: %w", err)
	}
	if fp != cfg.fingerprint() {
		return nil, fmt.Errorf("party: restoring snapshot: %w: snapshot %016x, this session %016x",
			snapshot.ErrFingerprintMismatch, fp, cfg.fingerprint())
	}
	rt := mpc.NewPartyRuntime(mpc.PartyID(cfg.Role), cfg.Seed, mpc.DefaultCostModel(), conn)
	rt.DecodeState(d)
	next := d.Int()
	if d.Err() == nil && (next < 1 || next > cfg.Steps) {
		d.Corrupt("session snapshot resumes at step %d of %d", next, cfg.Steps)
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("party: restoring snapshot: %w", err)
	}
	s := &session{cfg: cfg, rt: rt, conn: conn}
	s.baseRounds, s.baseBytes = rt.WireTally()
	s.opened = append(s.opened, opened...)
	return s.run(next)
}

type session struct {
	cfg  Config
	rt   *mpc.Runtime
	conn wire.Conn
	// baseRounds/baseBytes are the party's wire tally when the session
	// (re)started: zero on a fresh run, the pre-crash total on a resume. The
	// report adds them to the connection counters so a rejoined session
	// reports the same cumulative wire cost as an uninterrupted one.
	baseRounds uint64
	baseBytes  uint64
	opened     []uint32
	snap       []byte
}

// party is the runtime's one party, this process's server.
func (s *session) party() *mpc.Party { return s.rt.Party(mpc.PartyID(s.cfg.Role)) }

func (s *session) open(v uint32) { s.opened = append(s.opened, v) }

// fingerprint hashes the parameters a session is constructed from — role,
// seed, horizon and the runtime's cost model — into the header of its
// snapshots, so Resume refuses a snapshot of another session. SnapshotAt is
// left out: a resumed run may snapshot elsewhere. The cost model is named
// value by value, with the bytes per AND gate it no longer carries, as its
// snapshots have always named it.
func (c Config) fingerprint() uint64 {
	m := mpc.DefaultCostModel()
	return snapshot.Fingerprint("party session",
		fmt.Sprintf("role=%d seed=%d steps=%d", c.Role, c.Seed, c.Steps),
		snapshot.Named("ANDGatesPerCompareExchangeBit", m.ANDGatesPerCompareExchangeBit,
			"ANDGatesPerScanBit", m.ANDGatesPerScanBit, "ANDGatesPerLaplace", m.ANDGatesPerLaplace,
			"GatesPerSecond", m.GatesPerSecond, "BytesPerANDGate", 32))
}

// encodeSnapshot writes the session's snapshot: the versioned header, the
// runtime section, then the step the session runs next.
func (s *session) encodeSnapshot(next int) ([]byte, error) {
	var buf bytes.Buffer
	e := snapshot.NewEncoder(&buf)
	snapshot.WriteHeader(e, s.cfg.fingerprint())
	s.rt.EncodeState(e)
	e.Int(next)
	if err := e.Finish(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func (s *session) run(from int) (*Report, error) {
	if from == 0 {
		// Alg. 1 lines 1-2: the counter starts at a public zero, which both
		// parties share without a round.
		s.party().StoreShare(0, "c", 0)
	}
	for t := from; t < s.cfg.Steps; t++ {
		if err := s.step(t); err != nil {
			return nil, err
		}
		if t == s.cfg.SnapshotAt {
			b, err := s.encodeSnapshot(t + 1)
			if err != nil {
				return nil, fmt.Errorf("party: snapshotting at step %d: %w", t, err)
			}
			s.snap = b
		}
	}
	ev, err := s.gmwSegment()
	if err != nil {
		return nil, err
	}
	return s.report(ev)
}

// step is one runtime protocol step in the one round of stepRounds, the
// shape of core's sDPTimer tick: recover the counter step t-1 re-shared
// (checking the reconstruction), draw joint Laplace noise and re-share the
// next counter; then record the public observations of a padded batch plus
// the periodic DP fetch/flush. Declaration order is draw order — the
// re-share mask, then the noise — and the recovery, which draws nothing,
// goes last; it loads the stored share at Exchange, before Share replaces it.
func (s *session) step(t int) error {
	s.rt.SetTime(t)
	rd := s.rt.Round()
	share, noise, cw := rd.Reshare("c"), rd.Noise(), rd.Recover("c")
	if err := rd.Exchange(); err != nil {
		return err
	}
	c := rd.Recovered(cw)
	if c != counterValue(t) {
		return fmt.Errorf("party: role %d step %d: recovered counter %d, want %d", s.cfg.Role, t, c, counterValue(t))
	}
	rd.Share(share, counterValue(t+1))
	lap := rd.Laplace(noise, 2.5, mpc.OpShrink)
	s.open(c)
	bits := math.Float64bits(lap)
	s.open(uint32(bits))
	s.open(uint32(bits >> 32))

	s.rt.ObserveBatch(8, "transform")
	if t%3 == 2 {
		s.rt.ObserveFetch((t*7)%13, "shrink")
	}
	if t%5 == 4 {
		s.rt.ObserveFlush(4, "flush")
	}
	return nil
}

// gmwSegment runs the on-the-wire GMW circuits over the session connection:
// role 0 deals the tuples (offline phase), then both parties evaluate the
// counter-update, threshold-check and compare-exchange circuits over shares
// masked by fixed words, opening the outputs.
func (s *session) gmwSegment() (*gmw.Eval, error) {
	ev := gmw.NewEval(s.cfg.Role, s.conn, 0)
	if s.cfg.Role == 0 {
		if err := ev.DealTriples(gmw.NewDealer(s.cfg.Seed*7+5), gmwSchedule.ANDs()); err != nil {
			return nil, err
		}
	} else {
		if err := ev.RecvTriples(); err != nil {
			return nil, err
		}
	}
	last := counterValue(s.cfg.Steps - 1)
	wc := gmw.ShareOfWord(s.cfg.Role, last, 0xC0FFEE01)
	wd := gmw.ShareOfWord(s.cfg.Role, uint32(s.cfg.Steps), 0x5EED5EED)

	sum := ev.CounterUpdate(wc, wd)
	ge := gmw.WordOfBit(ev.ThresholdCheck(wc, wd))
	lo, hi := ev.CompareExchange(wc, wd)
	var out [4]uint32
	if err := ev.OpenWords([]gmw.WordShare{sum, ge, lo, hi}, out[:]); err != nil {
		return nil, err
	}
	s.opened = append(s.opened, out[:]...)
	return ev, nil
}

func (s *session) report(ev *gmw.Eval) (*Report, error) {
	transcript := s.party().TranscriptDigest()
	finalSnap, err := s.encodeSnapshot(s.cfg.Steps)
	if err != nil {
		return nil, fmt.Errorf("party: final snapshot: %w", err)
	}
	snapSum := sha256.Sum256(finalSnap)

	st := s.conn.Stats()
	predR, predB := Predict(s.cfg)
	return &Report{
		Role:            s.cfg.Role,
		Steps:           s.cfg.Steps,
		Opened:          s.opened,
		TranscriptSHA:   hex.EncodeToString(transcript[:]),
		SnapshotSHA:     hex.EncodeToString(snapSum[:]),
		WireRounds:      s.baseRounds + st.Rounds,
		WireBytes:       s.baseBytes + st.BytesSent + st.BytesRecv,
		GMWANDGates:     ev.ANDGates,
		PredictedRounds: predR,
		PredictedBytes:  predB,
		Snapshot:        s.snap,
	}, nil
}

// RunLoopbackPair executes both parties of a session over an in-process
// loopback pair, one goroutine per party, and returns both reports. This is
// the reference execution the TCP deployment must match byte for byte.
func RunLoopbackPair(cfg Config) (r0, r1 *Report, err error) {
	c0, c1 := wire.Loopback(256)
	defer c0.Close()
	defer c1.Close()

	cfg0, cfg1 := cfg, cfg
	cfg0.Role, cfg1.Role = 0, 1

	var wg sync.WaitGroup
	var err1 error
	wg.Add(1)
	//lint:allow goleak wg.Wait below
	go func() {
		defer wg.Done()
		r1, err1 = Run(cfg1, c1)
	}()
	r0, err = Run(cfg0, c0)
	wg.Wait()
	if err != nil {
		return nil, nil, err
	}
	if err1 != nil {
		return nil, nil, err1
	}
	return r0, r1, nil
}

// Equivalent reports whether two reports from the same role are
// byte-identical on every observable, and if not, which field diverged.
func Equivalent(a, b *Report) (bool, string) {
	switch {
	case a.Role != b.Role:
		return false, "role"
	case a.Steps != b.Steps:
		return false, "steps"
	case len(a.Opened) != len(b.Opened):
		return false, "opened length"
	case a.TranscriptSHA != b.TranscriptSHA:
		return false, "transcript digest"
	case a.SnapshotSHA != b.SnapshotSHA:
		return false, "snapshot digest"
	case a.WireRounds != b.WireRounds:
		return false, "wire rounds"
	case a.WireBytes != b.WireBytes:
		return false, "wire bytes"
	case a.GMWANDGates != b.GMWANDGates:
		return false, "gmw and gates"
	}
	for i := range a.Opened {
		if a.Opened[i] != b.Opened[i] {
			return false, fmt.Sprintf("opened[%d]", i)
		}
	}
	return true, ""
}
