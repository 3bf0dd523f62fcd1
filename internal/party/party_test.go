package party

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash/crc32"
	"net"
	"slices"
	"sync"
	"testing"

	"incshrink/internal/gmw"
	"incshrink/internal/mpc"
	"incshrink/internal/snapshot"
	"incshrink/internal/wire"
)

func testConfig() Config {
	return Config{Seed: 1234, Steps: 12, SnapshotAt: 5}
}

// runTCPPair executes both roles of a session over a real localhost TCP
// connection, joining both goroutines before returning.
func runTCPPair(t *testing.T, cfg Config) (r0, r1 *Report) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	cfg0, cfg1 := cfg, cfg
	cfg0.Role, cfg1.Role = 0, 1

	var wg sync.WaitGroup
	var err0, err1 error
	wg.Add(2)
	go func() {
		defer wg.Done()
		c, err := ln.Accept()
		if err != nil {
			err0 = err
			return
		}
		conn := wire.NewNetConn(c, 0)
		defer conn.Close()
		r0, err0 = Run(cfg0, conn)
	}()
	go func() {
		defer wg.Done()
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			err1 = err
			return
		}
		conn := wire.NewNetConn(c, 0)
		defer conn.Close()
		r1, err1 = Run(cfg1, conn)
	}()
	wg.Wait()
	if err0 != nil || err1 != nil {
		t.Fatalf("tcp session: role0=%v role1=%v", err0, err1)
	}
	return r0, r1
}

func TestLoopbackSessionDeterministic(t *testing.T) {
	a0, a1, err := RunLoopbackPair(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	b0, b1, err := RunLoopbackPair(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if ok, field := Equivalent(a0, b0); !ok {
		t.Errorf("role 0 reruns diverge on %s", field)
	}
	if ok, field := Equivalent(a1, b1); !ok {
		t.Errorf("role 1 reruns diverge on %s", field)
	}
	// The protocol is symmetric on the wire and every opening is public:
	// both parties agree on opened values and tallies, while their private
	// transcripts (share halves) differ.
	if a0.WireRounds != a1.WireRounds || a0.WireBytes != a1.WireBytes {
		t.Errorf("wire tallies asymmetric: role0 %d/%d, role1 %d/%d",
			a0.WireRounds, a0.WireBytes, a1.WireRounds, a1.WireBytes)
	}
	if len(a0.Opened) != len(a1.Opened) {
		t.Fatalf("opened counts differ: %d vs %d", len(a0.Opened), len(a1.Opened))
	}
	for i := range a0.Opened {
		if a0.Opened[i] != a1.Opened[i] {
			t.Fatalf("opened[%d] differs between parties: %d vs %d", i, a0.Opened[i], a1.Opened[i])
		}
	}
	if a0.TranscriptSHA == a1.TranscriptSHA {
		t.Error("party transcripts identical across roles — shares are not split")
	}
}

// runRecordedPair is RunLoopbackPair with a recorder attached to each
// party from its first event.
func runRecordedPair(t *testing.T, cfg Config) (r [2]*Report, tr [2]*mpc.Transcript) {
	t.Helper()
	c0, c1 := wire.Loopback(256)
	defer c0.Close()
	defer c1.Close()
	var errs [2]error
	var wg sync.WaitGroup
	for role, conn := range []wire.Conn{c0, c1} {
		c := cfg
		c.Role = role
		rt := mpc.NewPartyRuntime(mpc.PartyID(role), c.Seed, mpc.DefaultCostModel(), conn)
		tr[role] = new(mpc.Transcript)
		rt.Party(mpc.PartyID(role)).Record(tr[role])
		wg.Add(1)
		go func() {
			defer wg.Done()
			r[role], errs[role] = (&session{cfg: c, rt: rt, conn: conn}).run(0)
		}()
	}
	wg.Wait()
	for role, err := range errs {
		if err != nil {
			t.Fatalf("role %d: %v", role, err)
		}
	}
	return r, tr
}

// TestTranscriptDigestMatchesLoggedTranscript pins each party's events
// three ways. Leaving out the stored shares, and without wire stamps, they
// hash to what the two-rounds-per-step schedule recorded: folding the
// recovery into the re-share's round moved no draw, contribution or
// observation. The unstamped and the running (stamped) digests are this
// schedule's literals. The unstamped one moved from the two-round schedule
// for two reasons: both parties store a share of the initial zero counter
// before step 0, and role 1's share stored at step t masks counterValue(t+1)
// rather than counterValue(t).
func TestTranscriptDigestMatchesLoggedTranscript(t *testing.T) {
	r, tr := runRecordedPair(t, Config{Seed: 1234, Steps: 12, SnapshotAt: -1})
	for role, want := range []struct{ draws, unstamped, full string }{
		{"a74f8d14d943d8b8ed5f2ac0f2326d1eb3e5eec479d95a84329e0fde69ae2da4", "c47960dcda5aa217fff9d8025dbde7f3470cd0b16594c45dd8d2ee7457402ab8", "8b789fbd4496815d333b155452b21c1c76636222d2608c4ea6fb820d70f0dd57"},
		{"f2417e5bffc8b55d72c3380f6e4c6e09101aaee7c8d49d4f1df4386ae4bb02a5", "48d2f8478ca1bfc82823f14cd6c19f9f9d1320c6168c38f10865399ce546a34a", "b38266c401c8ff9469436f45647e3fec24f215e24c15f4e648df51c5f7069717"},
	} {
		var draws mpc.Transcript
		for _, ev := range tr[role].Events {
			if ev.Kind != mpc.EvShareReceived {
				draws.Append(ev)
			}
		}
		if d := draws.DigestWithoutWire(); hex.EncodeToString(d[:]) != want.draws {
			t.Errorf("role %d events other than stored shares hash to %x, want %s", role, d, want.draws)
		}
		if d := tr[role].DigestWithoutWire(); hex.EncodeToString(d[:]) != want.unstamped {
			t.Errorf("role %d events without wire stamps hash to %x, want %s", role, d, want.unstamped)
		}
		if r[role].TranscriptSHA != want.full {
			t.Errorf("role %d transcript digest %s, want %s", role, r[role].TranscriptSHA, want.full)
		}
	}
}

// TestMeasuredWireMatchesPrediction pins the measured conn counters to the
// closed-form model exactly: the schedule is deterministic, so over loopback
// there is no slack at all. The model itself is the declared schedules: one
// runtime round per step, the GMW segment's AND rounds and its reveal.
func TestMeasuredWireMatchesPrediction(t *testing.T) {
	if len(stepRounds) != 1 {
		t.Errorf("a step takes %d runtime rounds, want 1: recovery, noise and re-share are one round, as in core's sDPTimer tick", len(stepRounds))
	}
	r0, r1, err := RunLoopbackPair(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*Report{r0, r1} {
		if r.WireRounds != r.PredictedRounds {
			t.Errorf("role %d rounds: measured %d, predicted %d", r.Role, r.WireRounds, r.PredictedRounds)
		}
		if r.WireBytes != r.PredictedBytes {
			t.Errorf("role %d bytes: measured %d, predicted %d", r.Role, r.WireBytes, r.PredictedBytes)
		}
	}
	if r0.GMWANDGates != gmwSchedule.ANDs() {
		t.Errorf("GMW segment used %d AND gates, budget %d", r0.GMWANDGates, gmwSchedule.ANDs())
	}
	if want := uint64(len(stepRounds)*testConfig().Steps + len(gmwSchedule) + len(gmwReveals)); r0.PredictedRounds != want {
		t.Errorf("predicted %d rounds, want %d", r0.PredictedRounds, want)
	}
	// The session the benchmark runs: 350 steps cost each party 389 rounds
	// and 15,861 bytes, measured and predicted.
	l0, _, err := RunLoopbackPair(Config{Seed: 5, Steps: 350, SnapshotAt: -1})
	if err != nil {
		t.Fatal(err)
	}
	if l0.WireRounds != 389 || l0.WireBytes != 15861 || l0.PredictedRounds != 389 || l0.PredictedBytes != 15861 {
		t.Errorf("350 steps: measured %d rounds / %d bytes, predicted %d / %d, want 389 / 15861",
			l0.WireRounds, l0.WireBytes, l0.PredictedRounds, l0.PredictedBytes)
	}
}

// TestGMWSegmentSpendsItsTriples: the tuple budget derived from the
// declared circuit shapes is exactly what the segment consumes.
func TestGMWSegmentSpendsItsTriples(t *testing.T) {
	c0, c1 := wire.Loopback(256)
	defer c0.Close()
	defer c1.Close()
	var evs [2]*gmw.Eval
	var errs [2]error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		evs[1], errs[1] = (&session{cfg: Config{Role: 1, Seed: 9, Steps: 3}, conn: c1}).gmwSegment()
	}()
	evs[0], errs[0] = (&session{cfg: Config{Role: 0, Seed: 9, Steps: 3}, conn: c0}).gmwSegment()
	wg.Wait()
	for role, ev := range evs {
		if errs[role] != nil {
			t.Fatalf("role %d: %v", role, errs[role])
		}
		if ev.TriplesLeft() != 0 || ev.ANDGates != gmwSchedule.ANDs() {
			t.Errorf("role %d: %d tuples left after %d AND gates, budget %d", role, ev.TriplesLeft(), ev.ANDGates, gmwSchedule.ANDs())
		}
	}
}

// TestLoopbackVsTCPEquivalence is the transport-independence contract: the
// same configuration over a real TCP socket produces byte-identical opened
// values, transcripts, snapshots and wire tallies as the in-process
// loopback pair.
func TestLoopbackVsTCPEquivalence(t *testing.T) {
	l0, l1, err := RunLoopbackPair(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	t0, t1 := runTCPPair(t, testConfig())
	if ok, field := Equivalent(l0, t0); !ok {
		t.Errorf("role 0: loopback and TCP diverge on %s", field)
	}
	if ok, field := Equivalent(l1, t1); !ok {
		t.Errorf("role 1: loopback and TCP diverge on %s", field)
	}
}

// TestSnapshotRejoinByteIdentical is the crash/rejoin contract: both parties
// snapshot after step k, are rebuilt from those bytes over a fresh
// connection, and the completed session is byte-identical to the
// uninterrupted one — including the transcript wire stamps, which survive
// the connection counters resetting. Every k is tried: the snapshot after
// step k carries the share of the counter step k+1 recovers.
func TestSnapshotRejoinByteIdentical(t *testing.T) {
	for k := range testConfig().Steps {
		cfg := testConfig()
		cfg.SnapshotAt = k
		f0, f1, err := RunLoopbackPair(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(f0.Snapshot) == 0 || len(f1.Snapshot) == 0 {
			t.Fatalf("snapshot after step %d missing", k)
		}

		// Values opened before the crash point: three per completed step.
		prefix := 3 * (k + 1)

		c0, c1 := wire.Loopback(256)
		cfg0, cfg1 := cfg, cfg
		cfg0.Role, cfg1.Role = 0, 1

		var wg sync.WaitGroup
		var r1 *Report
		var err1 error
		wg.Add(1)
		go func() {
			defer wg.Done()
			r1, err1 = Resume(cfg1, f1.Snapshot, f1.Opened[:prefix], c1)
		}()
		r0, err0 := Resume(cfg0, f0.Snapshot, f0.Opened[:prefix], c0)
		wg.Wait()
		c0.Close()
		c1.Close()
		if err0 != nil || err1 != nil {
			t.Fatalf("resume after step %d: role0=%v role1=%v", k, err0, err1)
		}
		if ok, field := Equivalent(f0, r0); !ok {
			t.Errorf("role 0: session rejoined after step %d diverges on %s", k, field)
		}
		if ok, field := Equivalent(f1, r1); !ok {
			t.Errorf("role 1: session rejoined after step %d diverges on %s", k, field)
		}
	}
}

// TestResumeRejectsForgedStep: a session snapshot carries the versioned
// header, the runtime section and then the step the session runs next. A
// step before the first the snapshot could follow, or past the horizon, is
// snapshot.ErrCorrupt; a stream of another format version is
// snapshot.ErrVersionMismatch; a snapshot of another session is
// snapshot.ErrFingerprintMismatch — each before the party sends anything.
func TestResumeRejectsForgedStep(t *testing.T) {
	cfg := testConfig()
	f0, f1, err := RunLoopbackPair(cfg)
	if err != nil {
		t.Fatal(err)
	}
	body := f0.Snapshot[:len(f0.Snapshot)-12] // the magic, header and runtime section, before the step and the CRC
	if got := binary.LittleEndian.Uint64(f0.Snapshot[len(body):]); got != uint64(cfg.SnapshotAt+1) {
		t.Fatalf("snapshot after step %d resumes at %d", cfg.SnapshotAt, got)
	}
	// seal appends the step and the CRC-32C trailer to a stream's body.
	seal := func(body []byte, next int64) []byte {
		b := binary.LittleEndian.AppendUint64(slices.Clone(body), uint64(next))
		return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, crc32.MakeTable(crc32.Castagnoli)))
	}
	header := len(snapshot.Magic)
	runtimeSection := body[header+12:]
	otherVersion := slices.Clone(body)
	binary.LittleEndian.PutUint32(otherVersion[header:], snapshot.Version+1)
	for _, tc := range []struct {
		name   string
		stream []byte
		want   error
	}{
		{"step 0", seal(body, 0), snapshot.ErrCorrupt},
		{"step -1", seal(body, -1), snapshot.ErrCorrupt},
		{"past the horizon", seal(body, int64(cfg.Steps)+1), snapshot.ErrCorrupt},
		// Format v8 wrote no header: the runtime section, then the runtime
		// clock 5. Without the header that stream read as one resuming at
		// step 5, which re-ran a round and failed with an untyped counter
		// error.
		{"v8 stream", seal([]byte(snapshot.Magic+string(runtimeSection)), 5), snapshot.ErrVersionMismatch},
		{"another version", seal(otherVersion, int64(cfg.SnapshotAt)+1), snapshot.ErrVersionMismatch},
		{"another session", f1.Snapshot, snapshot.ErrFingerprintMismatch},
	} {
		c0, c1 := wire.Loopback(8)
		_, err := Resume(cfg, tc.stream, f0.Opened[:3*(cfg.SnapshotAt+1)], c0)
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: %v, want %v", tc.name, err, tc.want)
		}
		if sent := c0.Stats().FramesSent; sent != 0 {
			t.Errorf("%s: resume sent %d frames", tc.name, sent)
		}
		c0.Close()
		c1.Close()
	}
}

// TestOpenedValuesPinned pins the SHA-256 of every value a session opens,
// little-endian, for the smoke configuration and for the benchmark's first
// seed-1 session. The literals are those of the two-rounds-per-step
// schedule: regrouping rounds must not move an opened value. For the smoke
// configuration it also pins each role's final snapshot digest, so the
// party's snapshot bytes cannot drift unnoticed.
func TestOpenedValuesPinned(t *testing.T) {
	for _, tc := range []struct {
		cfg  Config
		want string
		snap [2]string
	}{
		{Config{Seed: 1234, Steps: 12, SnapshotAt: -1}, "70ae93fb51290c6035fc29146db136fafc3ecc18046301f301b1a3fd767f4ea9", [2]string{
			"57a1d35018d2bc8c7a1ffdfa25f830ea5812e9822b20a86fe9447b564bf05eb2",
			"464e385e922f970eccf004163ed8e4cf8041645cce29f14b4ebd62d833d4f728",
		}},
		{Config{Seed: 64, Steps: 350, SnapshotAt: -1}, "e3af8cefb7112054364d2ef551c47ec516e3cdc12fedf3a2fdfd7a02d8059ee3", [2]string{}},
	} {
		r0, r1, err := RunLoopbackPair(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range []*Report{r0, r1} {
			var b []byte
			for _, v := range r.Opened {
				b = binary.LittleEndian.AppendUint32(b, v)
			}
			if got := sha256.Sum256(b); hex.EncodeToString(got[:]) != tc.want {
				t.Errorf("seed %d, %d steps: role %d opened values hash to %x, want %s", tc.cfg.Seed, tc.cfg.Steps, r.Role, got, tc.want)
			}
			if want := tc.snap[r.Role]; want != "" && r.SnapshotSHA != want {
				t.Errorf("seed %d, %d steps: role %d snapshot digest %s, want %s", tc.cfg.Seed, tc.cfg.Steps, r.Role, r.SnapshotSHA, want)
			}
		}
	}
}

// TestOldSchedulePeerRejected: a peer on the two-rounds-per-step schedule
// answers step 0 with its 3-word re-share and noise frame. The party fails
// with mpc.ErrBadFrame after its own one frame — it neither hangs nor sends
// anything further.
func TestOldSchedulePeerRejected(t *testing.T) {
	c0, c1 := wire.Loopback(8)
	defer c0.Close()
	defer c1.Close()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := c1.Send(mpc.FrameWord, make([]byte, 12)); err != nil {
			t.Errorf("peer send: %v", err)
		}
	}()
	cfg := testConfig()
	cfg.Role = 0
	_, err := Run(cfg, c0)
	wg.Wait()
	if !errors.Is(err, mpc.ErrBadFrame) {
		t.Fatalf("err = %v, want mpc.ErrBadFrame", err)
	}
	if got := c0.Stats().FramesSent; got != 1 {
		t.Errorf("party sent %d frames, want 1 (nothing after the bad frame)", got)
	}
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		cfg Config
		ok  bool
	}{
		{Config{Role: 0, Steps: 1, SnapshotAt: -1}, true},
		{Config{Role: 1, Steps: 4, SnapshotAt: 3}, true}, // snapshot after last step: resume replays the GMW segment
		{Config{Role: 2, Steps: 4}, false},
		{Config{Role: 0, Steps: 0}, false},
		{Config{Role: 0, Steps: 4, SnapshotAt: 4}, false},
	}
	for i, tc := range cases {
		err := tc.cfg.Validate()
		if (err == nil) != tc.ok {
			t.Errorf("case %d: Validate() = %v, want ok=%v", i, err, tc.ok)
		}
	}
}
