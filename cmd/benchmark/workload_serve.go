package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"incshrink"
	"incshrink/internal/obs"
	"incshrink/internal/serve"
	"incshrink/internal/workload"
)

// serve_http drives the production wiring — metrics, trace ring, access
// logger, data directory, periodic checkpoints — over a real loopback HTTP
// server, with views so small that the engine is a sliver of each request.
// Closed loop: serveClients keep-alive clients, each alternating between its
// serveViewsPerClient views, one request in flight per client.

// The request cycle of one view: 8 single-step uploads, one batch of 8
// steps, two standing counts and one filtered count.
const (
	cycleAdvances   = 8
	cycleBatchSteps = 8
	cycleSteps      = cycleAdvances + cycleBatchSteps
	cycleRequests   = cycleAdvances + 1 + 2 + 1
)

// serveDef is the ingest-bound micro-deployment every view runs.
var (
	serveDef  = incshrink.ViewDef{Within: 2, Budget: 2}
	serveOpts = incshrink.Options{MaxLeft: 2, MaxRight: 2, T: 2}
)

const countWhereBody = `{"where":[{"col":"right.time","minus":"left.time","op":"<=","val":10}]}`

// serveView is one hosted view as the client sees it.
type serveView struct {
	name  string
	seed  int64
	base  string // URL prefix of the view's routes
	steps []incshrink.StepRows
	truth []int
	// Request bodies, encoded in set-up: advance[i] uploads the i-th
	// single-step slot, batch[c] uploads cycle c's 8-step batch.
	advance [][]byte
	batch   [][]byte
	step    int // steps acknowledged so far
	counts  []int
	l1      float64
}

// serveClient is one closed-loop client.
type serveClient struct {
	http  *http.Client
	views []*serveView
	buf   bytes.Buffer
	chk   checker

	advance, batch, count, countWhere []time.Duration
	lane                              *lane     // this client's segments: the primary operation's medians
	progress                          *progress // both clients' requests: the system's rate

	// Traced repetitions send their own X-Trace-Id and remember each
	// request's root span under it.
	tr    *tracer
	id    uint64
	roots map[uint64]rootSpan
}

type rootSpan struct {
	span uint64
	dur  int64
}

// progress cuts the two clients' common stream of completed requests into
// segments of serveSystemSegment requests: marks[i] is when the (i+1)-th
// segment's last request completed, written once by whichever client
// completed it and read after both clients have finished.
type progress struct {
	done  atomic.Int64
	marks []time.Time
}

func (p *progress) completed() {
	if n := p.done.Add(1); n%serveSystemSegment == 0 {
		p.marks[n/serveSystemSegment-1] = time.Now()
	}
}

// lane turns the marks into the system's lane.
func (p *progress) lane(start time.Time) *lane {
	l := newLane(len(p.marks))
	for _, m := range p.marks {
		if m.IsZero() { // a failed request never completed its segment
			break
		}
		l.segs, l.ops = append(l.segs, m.Sub(start)), append(l.ops, nil)
		start = m
	}
	return l
}

// do sends one request, times it from send to fully-read response, and
// leaves the body in c.buf.
func (c *serveClient) do(kind, method, url string, body []byte) (time.Duration, bool) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		c.chk.fail("%s %s: %v", method, url, err)
		return 0, false
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	var trace uint64
	if c.tr != nil {
		c.id += 2 // the two clients mint odd and even IDs
		trace = c.id
		req.Header.Set("X-Trace-Id", fmt.Sprintf("%016x", trace))
	}
	t0 := time.Now()
	resp, err := c.http.Do(req)
	if err != nil {
		c.chk.fail("%s %s: %v", method, url, err)
		return 0, false
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	d := time.Since(t0)
	c.progress.completed()
	if c.tr != nil {
		c.roots[trace] = rootSpan{c.tr.add(trace, 0, kind, "client", c.tr.at(t0), d.Nanoseconds()), d.Nanoseconds()}
	}
	if err != nil || resp.StatusCode != http.StatusOK {
		// A refusal counts as failed even though a retry would succeed.
		c.chk.fail("%s %s: status %d, %v: %s", method, url, resp.StatusCode, err, c.buf.Bytes())
		return d, false
	}
	return d, true
}

// countAnswer decodes a count response and scores it against the truth.
func (c *serveClient) countAnswer(v *serveView) {
	var cr serve.CountResponse
	if err := json.Unmarshal(c.buf.Bytes(), &cr); err != nil {
		c.chk.fail("%s: decoding count: %v", v.name, err)
		return
	}
	truth := 0
	if v.step > 0 {
		truth = v.truth[v.step-1]
	}
	v.counts = append(v.counts, cr.Count)
	v.l1 += float64(truth - cr.Count)
	c.chk.check(cr.Count >= 0 && cr.Count <= truth, "%s at step %d: count %d exceeds truth %d", v.name, v.step, cr.Count, truth)
}

// request performs position pos of cycle cyc against view v.
func (c *serveClient) request(v *serveView, cyc, pos int) {
	switch {
	case pos < cycleAdvances:
		if d, ok := c.do("POST /advance", http.MethodPost, v.base+"/advance", v.advance[cyc*cycleAdvances+pos]); ok {
			c.advance = append(c.advance, d)
			c.lane.op(d)
			v.step++
		}
	case pos == cycleAdvances:
		if d, ok := c.do("POST /advance-batch", http.MethodPost, v.base+"/advance-batch", v.batch[cyc]); ok {
			c.batch = append(c.batch, d)
			v.step += cycleBatchSteps
		}
	case pos < cycleRequests-1:
		if d, ok := c.do("GET /count", http.MethodGet, v.base+"/count", nil); ok {
			c.count = append(c.count, d)
			c.countAnswer(v)
		}
	default:
		if d, ok := c.do("POST /count", http.MethodPost, v.base+"/count", []byte(countWhereBody)); ok {
			c.countWhere = append(c.countWhere, d)
			c.countAnswer(v)
		}
	}
}

// loop is the client's whole measured phase.
func (c *serveClient) loop(cycles int) {
	c.lane.start()
	for cyc := 0; cyc < cycles; cyc++ {
		for pos := 0; pos < cycleRequests; pos++ {
			for _, v := range c.views {
				c.request(v, cyc, pos)
			}
		}
		if (cyc+1)%serveSegment == 0 {
			c.lane.cut()
		}
	}
}

// newServeView generates one view's trace and encodes its request bodies.
func newServeView(i int, seed int64, cycles int, baseURL string) (*serveView, error) {
	v := &serveView{name: fmt.Sprintf("v%d", i), seed: seed*16 + int64(i) + 1}
	v.base = baseURL + "/v1/views/" + v.name
	tr, err := workload.Generate(workload.Config{
		Name: "serve", Steps: cycles * cycleSteps, UploadEvery: 1,
		PairRate: 0.6, MaxMultiplicity: 1, LeftNoiseRate: 0.6, RightNoiseRate: 0.3,
		Within: serveDef.Within, MaxLag: serveDef.Within,
		MaxLeft: serveOpts.MaxLeft, MaxRight: serveOpts.MaxRight,
		RightDrivesPairs: true, Seed: v.seed,
	})
	if err != nil {
		return nil, err
	}
	v.steps, v.truth = stepRows(tr), tr.PrefixTruth()
	v.counts = make([]int, 0, 3*cycles)
	for cyc := 0; cyc < cycles; cyc++ {
		s := v.steps[cyc*cycleSteps:]
		for _, st := range s[:cycleAdvances] {
			b, err := json.Marshal(serve.AdvanceRequest{Left: st.Left, Right: st.Right})
			if err != nil {
				return nil, err
			}
			v.advance = append(v.advance, b)
		}
		b, err := json.Marshal(serve.AdvanceBatchRequest{Steps: s[cycleAdvances:cycleSteps]})
		if err != nil {
			return nil, err
		}
		v.batch = append(v.batch, b)
	}
	return v, nil
}

// handlerJSON calls an API route on a handler directly (no socket) and
// decodes the 200 response into out.
func handlerJSON(h http.Handler, method, path string, out any) error {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, nil))
	if rec.Code != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %s", method, path, rec.Code, rec.Body)
	}
	return json.Unmarshal(rec.Body.Bytes(), out)
}

func runServeHTTP(ctx *runCtx) (*repResult, error) {
	res := newRepResult()
	t0 := time.Now()
	cycles := ctx.segmented(serveCyclesPerView, serveSegment)
	nviews := serveClients * serveViewsPerClient
	ops := nviews * cycles * cycleRequests
	steps := nviews * cycles * cycleSteps

	metrics := obs.NewRegistry()
	ring := obs.NewTraceLog(3 * ops) // every request's spans stay in the ring
	cfg := serve.Config{
		Metrics: metrics, Traces: ring,
		Logger:  slog.New(slog.NewTextHandler(io.Discard, nil)),
		DataDir: filepath.Join(ctx.dir, "data"), CheckpointEvery: ctx.scaled(serveCheckpoint, 8),
	}
	if err := os.MkdirAll(cfg.DataDir, 0o755); err != nil {
		return nil, err
	}
	reg := serve.NewRegistry(cfg)
	handler := serve.NewHandler(reg)
	srv := httptest.NewServer(handler)
	defer srv.Close()

	genStart := time.Now()
	views := make([]*serveView, nviews)
	for i := range views {
		v, err := newServeView(i, ctx.seed, cycles, srv.URL)
		if err != nil {
			return nil, err
		}
		views[i] = v
	}
	res.layer["workload.generate_s"] = time.Since(genStart).Seconds()

	prog := &progress{marks: make([]time.Time, ops/serveSystemSegment)}
	cls := make([]*serveClient, serveClients)
	for i := range cls {
		tp := &http.Transport{MaxIdleConnsPerHost: 1}
		defer tp.CloseIdleConnections()
		c := &serveClient{http: &http.Client{Transport: tp}, views: views[i*serveViewsPerClient : (i+1)*serveViewsPerClient]}
		n := len(c.views) * cycles
		c.advance = make([]time.Duration, 0, n*cycleAdvances)
		c.batch = make([]time.Duration, 0, n)
		c.count = make([]time.Duration, 0, 2*n)
		c.countWhere = make([]time.Duration, 0, n)
		c.lane, c.progress = newLane(cycles/serveSegment), prog
		if ctx.tr != nil {
			c.tr, c.id, c.roots = ctx.tr, uint64(i), make(map[uint64]rootSpan, n*cycleRequests)
		}
		cls[i] = c
	}
	// Views are created over the wire too, on the connection the client
	// then keeps: server boot + view creation is this workload's set-up.
	for _, c := range cls {
		for _, v := range c.views {
			body, err := json.Marshal(serve.CreateRequest{
				Name: v.name, Within: serveDef.Within, Budget: serveDef.Budget,
				MaxLeft: serveOpts.MaxLeft, MaxRight: serveOpts.MaxRight, T: serveOpts.T, Seed: v.seed,
			})
			if err != nil {
				return nil, err
			}
			resp, err := c.http.Post(srv.URL+"/v1/views", "application/json", bytes.NewReader(body))
			if err != nil {
				return nil, err
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusCreated {
				return nil, fmt.Errorf("creating %s: status %d", v.name, resp.StatusCode)
			}
		}
	}
	res.setup = time.Since(t0)

	s0 := scrapeRegistry(metrics)
	ph := beginTimed()
	var wg sync.WaitGroup
	for _, c := range cls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.loop(cycles)
		}()
	}
	wg.Wait()
	ph.end(res, ops)

	var chk checker
	var advance, batch, count, countWhere []time.Duration
	for _, c := range cls {
		advance = append(advance, c.advance...)
		batch = append(batch, c.batch...)
		count = append(count, c.count...)
		countWhere = append(countWhere, c.countWhere...)
		chk.failed += c.chk.failed
		chk.attempted += c.chk.attempted
		chk.problems = append(chk.problems, c.chk.problems...)
	}
	// Lane 0 is the system's: both clients' requests in completion order,
	// which the rates are taken from. The clients' own lanes carry the
	// primary operation's latencies.
	res.lanes = []*lane{prog.lane(ph.start)}
	for _, c := range cls {
		res.lanes = append(res.lanes, c.lane)
	}
	res.rates = func(best []float64) (float64, float64) {
		return serveSystemSegment * float64(cycleSteps) / cycleRequests / best[0], serveSystemSegment / best[0]
	}

	out := res.layer
	latencyLayer(out, advance, nil, count, countWhere)
	rootSeconds := 0.0
	for _, ds := range [][]time.Duration{advance, batch, count, countWhere} {
		for _, d := range ds {
			rootSeconds += d.Seconds()
		}
	}
	s1 := scrapeRegistry(metrics)
	coreLayer(out, s0, s1, steps, rootSeconds)
	serveLayer(out, s0, s1)
	if ctx.tr != nil {
		joinRing(ctx.tr, ring, cls, out)
	}

	// Each view must end where a bare DB replaying the same steps with the
	// same seed ends, and again after a restart from its checkpoint.
	want, digest, err := verifyViews(handler, views, steps, out, &chk)
	if err != nil {
		return nil, err
	}
	serveCheckpointLayer(out, scrapeRegistry(metrics))

	srv.Close()
	if err := reg.Close(context.Background()); err != nil {
		return nil, err
	}
	fresh := serve.NewRegistry(serve.Config{DataDir: cfg.DataDir})
	t0 = time.Now()
	names, err := fresh.RestoreAll()
	out["serve.restore_all_ms"] = time.Since(t0).Seconds() * 1e3
	chk.check(err == nil && len(names) == nviews, "RestoreAll: %d views, %v", len(names), err)
	restored := serve.NewHandler(fresh)
	for i, v := range views {
		var cr serve.CountResponse
		err := handlerJSON(restored, http.MethodGet, "/v1/views/"+v.name+"/count", &cr)
		chk.check(err == nil && cr.Count == want[i], "%s: count after restart %d (%v), bare replay %d", v.name, cr.Count, err, want[i])
	}
	if err := fresh.Close(context.Background()); err != nil {
		return nil, err
	}
	res.finish(&chk, ops, digest)
	return res, nil
}

// verifyViews checks every view against a bare incshrink.DB replaying the
// same steps with the same seed, reads the views' protocol stats into the
// incshrink and core layers, and checkpoints each view for the restart
// check. It returns the replayed counts and the answers' digest.
func verifyViews(handler http.Handler, views []*serveView, steps int, out values, chk *checker) (want []int, digest string, err error) {
	ans := newAnswers()
	want = make([]int, len(views))
	var l1, queries, simMPC, simQuery, viewBytes, pairs float64
	var viewSlots, cacheSlots, viewEntries int
	for i, v := range views {
		for _, n := range v.counts {
			ans.add(uint64(n))
		}
		l1 += v.l1
		queries += float64(len(v.counts))
		opts := serveOpts
		opts.Seed = v.seed
		db, err := incshrink.Open(serveDef, opts)
		if err != nil {
			return nil, "", err
		}
		for t, st := range v.steps[:v.step] {
			if err := db.Advance(st.Left, st.Right); err != nil {
				return nil, "", fmt.Errorf("replaying %s step %d: %w", v.name, t, err)
			}
		}
		want[i], _ = db.Count()
		var cr serve.CountResponse
		err = handlerJSON(handler, http.MethodGet, "/v1/views/"+v.name+"/count", &cr)
		chk.check(err == nil && cr.Count == want[i], "%s: served count %d (%v), bare replay %d", v.name, cr.Count, err, want[i])

		var st serve.StatusJSON
		if err := handlerJSON(handler, http.MethodGet, "/v1/views/"+v.name+"/stats", &st); err != nil {
			return nil, "", err
		}
		chk.check(st.Serve.Rejected == 0 && st.Serve.Failed == 0 && st.Serve.CheckpointErrors == 0,
			"%s: %d rejected, %d failed, %d checkpoint errors", v.name, st.Serve.Rejected, st.Serve.Failed, st.Serve.CheckpointErrors)
		simMPC += st.Stats.TransformSeconds + st.Stats.ShrinkSeconds
		simQuery += st.Stats.QuerySeconds
		viewBytes += float64(st.Stats.ViewBytes)
		viewSlots += st.Stats.ViewSlots
		cacheSlots += st.Stats.CacheSlots
		viewEntries += st.Stats.ViewEntries
		if v.step > 0 {
			pairs += float64(v.truth[v.step-1])
		}
		var snap serve.SnapshotResponse
		err = handlerJSON(handler, http.MethodPost, "/v1/views/"+v.name+"/snapshot", &snap)
		chk.check(err == nil && snap.Step == v.step, "%s: checkpoint at step %d (%v), want %d", v.name, snap.Step, err, v.step)
	}
	if queries > 0 {
		out["incshrink.l1_error_mean"] = l1 / queries
		out["incshrink.sim_qet_ms"] = simQuery / (queries + float64(len(views))) * 1e3 // the final checks queried once more per view
	}
	out["incshrink.sim_mpc_s_per_step"] = simMPC / float64(steps)
	if pairs > 0 {
		out["incshrink.view_bytes_per_pair"] = viewBytes / pairs
	}
	out["core.view_slots"] = float64(viewSlots)
	out["core.cache_slots"] = float64(cacheSlots)
	if viewSlots > 0 {
		out["core.dummy_frac"] = 1 - float64(viewEntries)/float64(viewSlots)
	}
	return want, ans.hex(), nil
}

// serveLayer fills the serving counters' ratios from the registry's scrapes
// around the measured phase.
func serveLayer(out values, s0, s1 scrape) {
	delta := func(name string) float64 { return s1.sum(name) - s0.sum(name) }
	if n := delta("incshrink_serve_batch_steps_count"); n > 0 {
		out["serve.coalesce_steps_per_batch"] = delta("incshrink_serve_batch_steps_sum") / n
	}
	rejected := delta("incshrink_serve_rejected_total")
	if offered := rejected + delta("incshrink_serve_advances_total"); offered > 0 {
		out["serve.rejected_frac"] = rejected / offered
	}
}

// serveCheckpointLayer reads the mean checkpoint cost (periodic checkpoints
// of the measured phase plus the final explicit ones).
func serveCheckpointLayer(out values, s scrape) {
	if n := s.sum("incshrink_serve_checkpoint_seconds_count"); n > 0 {
		out["serve.checkpoint_ms"] = s.sum("incshrink_serve_checkpoint_seconds_sum") / n * 1e3
		out["serve.checkpoint_bytes"] = s.sum("incshrink_serve_checkpoint_bytes_sum") / n
	}
}

// joinRing attaches the server's own spans — http dispatch, mailbox wait,
// batch apply — to the client's root spans by trace ID, and takes the serve
// layer's span medians.
func joinRing(tr *tracer, ring *obs.TraceLog, cls []*serveClient, out values) {
	roots := make(map[uint64]rootSpan)
	for _, c := range cls {
		for id, r := range c.roots {
			roots[id] = r
		}
	}
	// The ring stamps spans on the obs clock; shift them onto the tracer's.
	shift := tr.at(time.Now()) - int64(obs.Now())
	spans := ring.Spans()
	httpSpan := make(map[uint64]uint64, len(roots))
	var httpUS, overheadUS, waitUS, applyUS []float64
	for _, s := range spans {
		root, ok := roots[uint64(s.Trace)]
		if !ok || !strings.HasPrefix(s.Name, "http ") {
			continue
		}
		httpSpan[uint64(s.Trace)] = tr.add(uint64(s.Trace), root.span, s.Name, "serve", int64(s.Start)+shift, s.Dur.Nanoseconds())
		httpUS = append(httpUS, float64(s.Dur.Nanoseconds())/1e3)
		overheadUS = append(overheadUS, float64(root.dur-s.Dur.Nanoseconds())/1e3)
	}
	for _, s := range spans {
		parent, ok := httpSpan[uint64(s.Trace)]
		if !ok || strings.HasPrefix(s.Name, "http ") {
			continue
		}
		tr.add(uint64(s.Trace), parent, s.Name, "serve", int64(s.Start)+shift, s.Dur.Nanoseconds())
		switch s.Name {
		case "ingest.wait":
			waitUS = append(waitUS, float64(s.Dur.Nanoseconds())/1e3)
		case "ingest.apply":
			applyUS = append(applyUS, float64(s.Dur.Nanoseconds())/1e3)
		}
	}
	out["serve.http_request_us"] = median(httpUS)
	out["serve.client_overhead_us"] = median(overheadUS)
	out["serve.ingest_wait_us"] = median(waitUS)
	out["serve.ingest_apply_us"] = median(applyUS)
}
