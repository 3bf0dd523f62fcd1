package main

import (
	"crypto/tls"
	"fmt"
	"math/rand"
	"net"
	"slices"
	"sync"
	"time"

	"incshrink/internal/gmw"
	"incshrink/internal/party"
	"incshrink/internal/wire"
)

// party_tls runs the two outsourcing servers as two goroutines joined by
// localhost mutually-authenticated TLS 1.3, the transport of
// cmd/incshrink-party. Phase one is partySessions party.Run sessions, one
// after the other, each over its own connection; phase two, on a fresh
// connection pair, sorts partySortWords secret words with a Batcher network
// of gmw.Eval.CompareExchange gates and opens the result. Closed loop,
// 2 goroutines (one per party), each blocking on its peer.

// tlsEndpoints is a listener plus both parties' pinned-certificate material.
type tlsEndpoints struct {
	ln       net.Listener
	dialWith wire.TLSFiles
}

// newTLSEndpoints generates both certificates into dir and starts party 0's
// listener.
func newTLSEndpoints(dir string) (*tlsEndpoints, error) {
	c0, k0, err := wire.GenerateCert(dir, "party0")
	if err != nil {
		return nil, err
	}
	c1, k1, err := wire.GenerateCert(dir, "party1")
	if err != nil {
		return nil, err
	}
	ln, err := wire.ListenTLS("127.0.0.1:0", wire.TLSFiles{Cert: c0, Key: k0, PeerCert: c1})
	if err != nil {
		return nil, err
	}
	return &tlsEndpoints{ln: ln, dialWith: wire.TLSFiles{Cert: c1, Key: k1, PeerCert: c0}}, nil
}

// pair establishes one connection, handshake included, and returns both
// ends wrapped in the frame transport.
func (e *tlsEndpoints) pair() (p0, p1 *wire.NetConn, err error) {
	type accepted struct {
		c   net.Conn
		err error
	}
	ch := make(chan accepted, 1)
	go func() {
		c, err := e.ln.Accept()
		if err == nil {
			// Accept returns before the handshake; finish it here so set-up,
			// not the first protocol round, pays for it.
			if tc, ok := c.(*tls.Conn); ok {
				err = tc.Handshake()
			}
		}
		ch <- accepted{c, err}
	}()
	c1, err := wire.DialTLS(e.ln.Addr().String(), e.dialWith)
	a := <-ch
	if err != nil || a.err != nil {
		if c1 != nil {
			c1.Close()
		}
		if a.c != nil {
			a.c.Close()
		}
		return nil, nil, fmt.Errorf("tls pair: dial %v, accept %v", err, a.err)
	}
	return wire.NewNetConn(a.c, 0), wire.NewNetConn(c1, 0), nil
}

// batcherNetwork lists the compare-exchanges of Batcher's odd-even merge
// sort over n = 2^k wires (543 of them for n = 64). The benchmark carries
// its own copy so that it depends on no sorting-network enumerator of the
// engine.
func batcherNetwork(n int) [][2]int {
	var out [][2]int
	for p := 1; p < n; p *= 2 {
		for k := p; k >= 1; k /= 2 {
			for j := k % p; j+k < n; j += 2 * k {
				for i := 0; i < k && i+j+k < n; i++ {
					if (i+j)/(2*p) == (i+j+k)/(2*p) {
						out = append(out, [2]int{i + j, i + j + k})
					}
				}
			}
		}
	}
	return out
}

// cexANDs is the AND-gate (and triple) cost of one CompareExchange.
const cexANDs = 160

// sortInputs draws the secret words and their sharing masks from the seed.
func sortInputs(seed int64, n int) (vals, masks []uint32) {
	rng := rand.New(rand.NewSource(seed ^ 0x736f7274)) // "sort"
	vals, masks = make([]uint32, n), make([]uint32, n)
	for i := range vals {
		vals[i], masks[i] = rng.Uint32(), rng.Uint32()
	}
	return vals, masks
}

// gmwSortTimes are one party's phase boundaries and per-gate latencies.
type gmwSortTimes struct {
	deal, eval, open time.Duration
	cex              []time.Duration
	cexStart         []time.Time
}

// gmwSort is one party's half of the secure sort: offline triples (role 0
// deals), the comparator network, then the opened outputs.
func gmwSort(role int, conn wire.Conn, seed int64, vals, masks []uint32, network [][2]int, tm *gmwSortTimes) ([]uint32, error) {
	ev := gmw.NewEval(role, conn, 1)
	t0 := time.Now()
	var err error
	if role == 0 {
		err = ev.DealTriples(gmw.NewDealer(seed), cexANDs*len(network))
	} else {
		err = ev.RecvTriples()
	}
	if err != nil {
		return nil, err
	}
	tm.deal = time.Since(t0)

	w := make([]gmw.WordShare, len(vals))
	for i := range w {
		w[i] = gmw.ShareOfWord(role, vals[i], masks[i])
	}
	t0 = time.Now()
	for _, c := range network {
		g0 := time.Now()
		w[c[0]], w[c[1]] = ev.CompareExchange(w[c[0]], w[c[1]])
		tm.cex = append(tm.cex, time.Since(g0))
		tm.cexStart = append(tm.cexStart, g0)
	}
	if err := ev.Err(); err != nil {
		return nil, err
	}
	tm.eval = time.Since(t0)

	t0 = time.Now()
	out := make([]uint32, len(w))
	for i := range w {
		if out[i], err = ev.OpenWord(w[i]); err != nil {
			return nil, err
		}
	}
	tm.open = time.Since(t0)
	return out, nil
}

// both runs f for party 0 and party 1 concurrently and returns their errors.
func both(f func(role int) error) error {
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for role := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[role] = f(role)
		}()
	}
	wg.Wait()
	for role, err := range errs {
		if err != nil {
			return fmt.Errorf("party %d: %w", role, err)
		}
	}
	return nil
}

func runPartyTLS(ctx *runCtx) (*repResult, error) {
	res := newRepResult()
	t0 := time.Now()
	steps := ctx.scaled(partySteps, 20)
	words := partySortWords
	if ctx.scale < 0.1 {
		words = 16 // -quick: 63 compare-exchanges instead of 543
	}
	network := batcherNetwork(words)
	vals, masks := sortInputs(ctx.seed, words)
	ep, err := newTLSEndpoints(ctx.dir)
	if err != nil {
		return nil, err
	}
	defer ep.ln.Close()
	// One connection pair per session and one for the sort, all established
	// (handshake included) in set-up.
	var conns [partySessions + 1][2]*wire.NetConn
	for i := range conns {
		if conns[i][0], conns[i][1], err = ep.pair(); err != nil {
			return nil, err
		}
		defer conns[i][0].Close()
		defer conns[i][1].Close()
	}
	tms := [2]*gmwSortTimes{}
	for role := range tms {
		tms[role] = &gmwSortTimes{cex: make([]time.Duration, 0, len(network)), cexStart: make([]time.Time, 0, len(network))}
	}
	sessions, gateRuns := newLane(partySessions), newLane(len(network)/partyGateSegment)
	res.setup = time.Since(t0)

	ph := beginTimed()
	var cfgs [partySessions]party.Config
	var reports [partySessions][2]*party.Report
	sessionStart := time.Now()
	sessions.start()
	for k := range cfgs {
		cfgs[k] = party.Config{Seed: ctx.seed*64 + int64(k), Steps: steps, SnapshotAt: -1}
		err = both(func(role int) error {
			c := cfgs[k]
			c.Role = role
			var err error
			reports[k][role], err = party.Run(c, conns[k][role])
			return err
		})
		if err != nil {
			return nil, err
		}
		sessions.cut()
	}
	session := time.Since(sessionStart)

	var sorted [2][]uint32
	sortStart := time.Now()
	err = both(func(role int) error {
		var err error
		sorted[role], err = gmwSort(role, conns[partySessions][role], ctx.seed, vals, masks, network, tms[role])
		return err
	})
	if err != nil {
		return nil, err
	}
	sortDur := time.Since(sortStart)
	totalSteps := partySessions * steps
	ops := totalSteps + len(network)
	ph.end(res, ops)
	// The two phases do different work, so each gets its own rate: protocol
	// steps over the best session, compare-exchanges over the best run of
	// gates of the sort, as party 0 saw them.
	tm := tms[0]
	for i := 0; i+partyGateSegment <= len(tm.cex); i += partyGateSegment {
		gates := tm.cex[i : i+partyGateSegment]
		var wall time.Duration
		for _, d := range gates {
			wall += d
		}
		gateRuns.segs, gateRuns.ops = append(gateRuns.segs, wall), append(gateRuns.ops, gates)
	}
	res.lanes = []*lane{sessions, gateRuns}
	res.rates = func(best []float64) (float64, float64) {
		return float64(steps) / best[0], partyGateSegment / best[1]
	}

	out := res.layer
	out["party.session_steps_per_s"] = float64(totalSteps) / session.Seconds()
	out["party.gmw_cex_per_s"] = float64(len(network)) / sortDur.Seconds()
	out["party.wire_rounds_per_step"] = float64(reports[0][0].WireRounds) / float64(steps)
	out["party.wire_bytes_per_step"] = float64(reports[0][0].WireBytes) / float64(steps)

	if tr := ctx.tr; tr != nil {
		root := tr.add(1, 0, "party_tls", "client", tr.at(sessionStart), (session + sortDur).Nanoseconds())
		at := sessionStart
		for k, d := range sessions.segs {
			for role, r := range reports[k] {
				tr.add(1, root, fmt.Sprintf("party.Run session=%d role=%d steps=%d rounds=%d bytes=%d", k, role, steps, r.WireRounds, r.WireBytes),
					"party", tr.at(at), d.Nanoseconds())
			}
			at = at.Add(d)
		}
		st := conns[partySessions][0].Stats()
		sortSpan := tr.add(1, root, fmt.Sprintf("gmw sort words=%d rounds=%d bytes=%d", words, st.Rounds, st.BytesSent+st.BytesRecv),
			"gmw", tr.at(sortStart), sortDur.Nanoseconds())
		tr.add(1, sortSpan, "deal triples", "gmw", tr.at(sortStart), tm.deal.Nanoseconds())
		for i, d := range tm.cex {
			tr.add(1, sortSpan, "CompareExchange", "gmw", tr.at(tm.cexStart[i]), d.Nanoseconds())
		}
		tr.add(1, sortSpan, "open outputs", "gmw", tr.at(sortStart.Add(tm.deal+tm.eval)), tm.open.Nanoseconds())
	}

	// Every session's two reports must match the in-process loopback
	// reference observable for observable, the wire cost must equal the
	// closed-form prediction, and the opened sort must be the plaintext sort.
	var chk checker
	ans := newAnswers()
	for k, cfg := range cfgs {
		ref0, ref1, err := party.RunLoopbackPair(cfg)
		if err != nil {
			return nil, fmt.Errorf("loopback reference: %w", err)
		}
		for role, ref := range []*party.Report{ref0, ref1} {
			r := reports[k][role]
			ok, field := party.Equivalent(r, ref)
			chk.check(ok, "session %d party %d differs from the loopback reference in %s", k, role, field)
			chk.check(r.WireRounds == r.PredictedRounds && r.WireBytes == r.PredictedBytes,
				"session %d party %d measured %d rounds / %d bytes, predicted %d / %d", k, role, r.WireRounds, r.WireBytes, r.PredictedRounds, r.PredictedBytes)
		}
		for _, v := range reports[k][0].Opened {
			ans.add(uint64(v))
		}
	}
	want := slices.Clone(vals)
	slices.Sort(want)
	chk.check(slices.Equal(sorted[0], want) && slices.Equal(sorted[1], want), "opened GMW sort differs from the plaintext sort")
	for _, v := range sorted[0] {
		ans.add(uint64(v))
	}
	res.finish(&chk, ops, ans.hex())
	return res, nil
}
