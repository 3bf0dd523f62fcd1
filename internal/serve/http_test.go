package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"

	"incshrink"
	"incshrink/internal/runner"
)

// doJSON issues one API call and decodes the JSON response into out.
func doJSON(t *testing.T, client *http.Client, method, url string, body, out any) int {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decoding response: %v", method, url, err)
		}
	}
	return resp.StatusCode
}

// TestHTTPEndToEnd drives the full session of the acceptance criteria over
// the wire: create view -> advance -> count -> filtered count -> stats ->
// drop, plus every error path's status code.
func TestHTTPEndToEnd(t *testing.T) {
	reg := NewRegistry(Config{})
	defer reg.Close(t.Context())
	srv := httptest.NewServer(NewHandler(reg))
	defer srv.Close()
	c := srv.Client()

	var health Health
	if code := doJSON(t, c, "GET", srv.URL+"/healthz", nil, &health); code != 200 || !health.Ready || health.Views != 0 {
		t.Fatalf("healthz: code=%d %+v", code, health)
	}

	create := CreateRequest{Name: "sales", Within: 5, Epsilon: 1.5, T: 3, MaxLeft: 8, MaxRight: 8, Seed: 42}
	var created StatusJSON
	if code := doJSON(t, c, "POST", srv.URL+"/v1/views", create, &created); code != 201 {
		t.Fatalf("create: code=%d", code)
	}
	if created.Name != "sales" || created.Stats.Epsilon != 1.5 {
		t.Errorf("created = %+v", created)
	}
	if code := doJSON(t, c, "POST", srv.URL+"/v1/views", create, nil); code != 409 {
		t.Errorf("duplicate create: code=%d", code)
	}
	if code := doJSON(t, c, "POST", srv.URL+"/v1/views", CreateRequest{Name: "bad", Within: -1}, nil); code != 400 {
		t.Errorf("invalid create: code=%d", code)
	}
	if code := doJSON(t, c, "POST", srv.URL+"/v1/views", CreateRequest{Name: "bad", Within: 1, Protocol: "nope"}, nil); code != 400 {
		t.Errorf("bad protocol: code=%d", code)
	}

	var adv AdvanceResponse
	for day := 0; day < 12; day++ {
		k := int64(day + 1)
		req := AdvanceRequest{
			Left:  []incshrink.Row{{k, int64(day)}},
			Right: []incshrink.Row{{k, int64(day) + 1}},
		}
		if code := doJSON(t, c, "POST", srv.URL+"/v1/views/sales/advance", req, &adv); code != 200 {
			t.Fatalf("advance day %d: code=%d", day, code)
		}
		if adv.Step != day+1 {
			t.Fatalf("advance day %d: step=%d", day, adv.Step)
		}
	}

	// A negative join key is the client's error on either ingest route (the
	// negative half of the key domain belongs to the engine's padding), and
	// a refused upload does not move the clock.
	negative := AdvanceRequest{Left: []incshrink.Row{{-41, 12}}}
	if code := doJSON(t, c, "POST", srv.URL+"/v1/views/sales/advance", negative, nil); code != 400 {
		t.Errorf("advance with a negative key: code=%d, want 400", code)
	}
	negBatch := AdvanceBatchRequest{Steps: []incshrink.StepRows{{Left: []incshrink.Row{{13, 12}}}, {Right: []incshrink.Row{{-2, 13}}}}}
	if code := doJSON(t, c, "POST", srv.URL+"/v1/views/sales/advance-batch", negBatch, nil); code != 400 {
		t.Errorf("advance-batch with a negative key: code=%d, want 400", code)
	}

	var cnt CountResponse
	if code := doJSON(t, c, "GET", srv.URL+"/v1/views/sales/count", nil, &cnt); code != 200 {
		t.Fatalf("count: code=%d", code)
	}
	if cnt.Count == 0 || cnt.QETSeconds <= 0 {
		t.Errorf("count = %+v", cnt)
	}
	total := cnt.Count

	filtered := CountRequest{Where: []WhereJSON{{Col: "left.key", Op: "<=", Val: 6}}}
	if code := doJSON(t, c, "POST", srv.URL+"/v1/views/sales/count", filtered, &cnt); code != 200 {
		t.Fatalf("filtered count: code=%d", code)
	}
	if cnt.Count > total {
		t.Errorf("filtered %d > total %d", cnt.Count, total)
	}
	diff := CountRequest{Where: []WhereJSON{{Col: "right.time", Minus: "left.time", Op: "<=", Val: 1}}}
	if code := doJSON(t, c, "POST", srv.URL+"/v1/views/sales/count", diff, &cnt); code != 200 {
		t.Fatalf("difference count: code=%d", code)
	}
	// One count carries at most eight conditions, a two-sided range on each
	// of the four columns: eight that hold everywhere count the whole view,
	// a ninth is refused before the view is scanned.
	var ranges CountRequest
	for _, col := range []string{"left.key", "left.time", "right.key", "right.time"} {
		ranges.Where = append(ranges.Where, WhereJSON{Col: col, Op: ">=", Val: -1 << 40}, WhereJSON{Col: col, Op: "<=", Val: 1 << 40})
	}
	if code := doJSON(t, c, "POST", srv.URL+"/v1/views/sales/count", ranges, &cnt); code != 200 || cnt.Count != total {
		t.Errorf("eight conditions: code=%d count=%d, want 200 and %d", code, cnt.Count, total)
	}
	ranges.Where = append(ranges.Where, WhereJSON{Col: "left.key", Op: "!=", Val: 0})
	if code := doJSON(t, c, "POST", srv.URL+"/v1/views/sales/count", ranges, nil); code != 400 {
		t.Errorf("nine conditions: code=%d, want 400", code)
	}
	bad := CountRequest{Where: []WhereJSON{{Col: "price", Op: "=", Val: 1}}}
	if code := doJSON(t, c, "POST", srv.URL+"/v1/views/sales/count", bad, nil); code != 400 {
		t.Errorf("unknown column: code=%d", code)
	}
	badOp := CountRequest{Where: []WhereJSON{{Col: "left.key", Op: "~", Val: 1}}}
	if code := doJSON(t, c, "POST", srv.URL+"/v1/views/sales/count", badOp, nil); code != 400 {
		t.Errorf("unknown op: code=%d", code)
	}
	// An operator outside the enum cannot be spelled over HTTP (ParseCmp
	// refuses it), so drive it through the view the handler calls: the
	// engine must refuse it as the client's error — 400 by type, not by the
	// handler's say-so — instead of answering 0.
	sales, err := reg.Get("sales")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []incshrink.Where{{Col: "left.key", Cmp: incshrink.Cmp(17)}, {Col: "price"}} {
		if _, _, err := sales.CountWhere(w); !errors.Is(err, incshrink.ErrInvalidArgument) || statusFor(err) != 400 {
			t.Errorf("CountWhere(%+v): err=%v status=%d, want ErrInvalidArgument and 400", w, err, statusFor(err))
		}
	}

	var st StatusJSON
	if code := doJSON(t, c, "GET", srv.URL+"/v1/views/sales/stats", nil, &st); code != 200 {
		t.Fatalf("stats: code=%d", code)
	}
	if st.Stats.Step != 12 || st.Serve.Advances != 12 || st.Serve.Queries < 3 {
		t.Errorf("stats = %+v", st)
	}

	var list struct {
		Views []string `json:"views"`
	}
	if code := doJSON(t, c, "GET", srv.URL+"/v1/views", nil, &list); code != 200 || len(list.Views) != 1 || list.Views[0] != "sales" {
		t.Errorf("list = %+v", list)
	}

	if code := doJSON(t, c, "GET", srv.URL+"/v1/views/nope/count", nil, nil); code != 404 {
		t.Errorf("missing view count: code=%d", code)
	}
	if code := doJSON(t, c, "DELETE", srv.URL+"/v1/views/sales", nil, nil); code != 200 {
		t.Errorf("drop: code=%d", code)
	}
	if code := doJSON(t, c, "GET", srv.URL+"/v1/views/sales/stats", nil, nil); code != 404 {
		t.Errorf("stats after drop: code=%d", code)
	}
}

// TestStatsServeKeysArePublic pins the serve object of /stats to its keys.
// Telemetry may export only public quantities: requests, steps and
// checkpoints are, but the number of rows an owner sent depends on its data
// (only the padded block size is public), so no key may count rows.
func TestStatsServeKeysArePublic(t *testing.T) {
	reg := NewRegistry(Config{})
	defer reg.Close(t.Context())
	srv := httptest.NewServer(NewHandler(reg))
	defer srv.Close()
	c := srv.Client()

	create := CreateRequest{Name: "sales", Within: 5, Epsilon: 1.5, T: 3, MaxLeft: 8, MaxRight: 8, Seed: 42}
	if code := doJSON(t, c, "POST", srv.URL+"/v1/views", create, nil); code != 201 {
		t.Fatalf("create: code=%d", code)
	}
	rows := map[string][][]int64{"left": {{1, 0}, {2, 0}}, "right": {{1, 1}}}
	if code := doJSON(t, c, "POST", srv.URL+"/v1/views/sales/advance", rows, nil); code != 200 {
		t.Fatalf("advance: code=%d", code)
	}
	var st struct {
		Serve map[string]json.RawMessage `json:"serve"`
	}
	if code := doJSON(t, c, "GET", srv.URL+"/v1/views/sales/stats", nil, &st); code != 200 {
		t.Fatalf("stats: code=%d", code)
	}
	keys := slices.Sorted(maps.Keys(st.Serve))
	want := []string{"advances", "batches", "checkpoint_errors", "checkpoints", "failed", "queries", "rejected"}
	if !slices.Equal(keys, want) {
		t.Errorf("/stats serve keys = %v, want %v", keys, want)
	}
}

// TestHTTPConcurrentViews is the serving acceptance test end to end: 8
// tenants created over the API, each driven by its own client goroutine
// with interleaved advance and count requests, final counts byte-identical
// to sequential single-view runs at the same seed. Run under -race.
func TestHTTPConcurrentViews(t *testing.T) {
	reg := NewRegistry(Config{})
	defer reg.Close(t.Context())
	srv := httptest.NewServer(NewHandler(reg))
	defer srv.Close()

	const views, steps = 8, 25
	seed := int64(7)
	counts := make([]int, views)
	var wg sync.WaitGroup
	for i := 0; i < views; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := srv.Client()
			name := fmt.Sprintf("tenant-%d", i)
			create := CreateRequest{
				Name: name, Within: 5, T: 3, MaxLeft: 8, MaxRight: 8,
				Seed: runner.DeriveSeed(seed, name),
			}
			if code := doJSON(t, c, "POST", srv.URL+"/v1/views", create, nil); code != 201 {
				t.Errorf("%s: create code=%d", name, code)
				return
			}
			rng := rand.New(rand.NewSource(runner.DeriveSeed(seed, name+"/rows")))
			nextKey := int64(1)
			var cnt CountResponse
			for s := 0; s < steps; s++ {
				left, right := genStep(rng, s, 2, 5, &nextKey)
				req := AdvanceRequest{Left: left, Right: right}
				for {
					var adv AdvanceResponse
					code := doJSON(t, c, "POST", srv.URL+"/v1/views/"+name+"/advance", req, &adv)
					if code == 200 {
						break
					}
					if code != http.StatusServiceUnavailable {
						t.Errorf("%s step %d: advance code=%d", name, s, code)
						return
					}
				}
				// Interleave a count with ingestion every few steps.
				if s%3 == 0 {
					if code := doJSON(t, c, "GET", srv.URL+"/v1/views/"+name+"/count", nil, &cnt); code != 200 {
						t.Errorf("%s step %d: count code=%d", name, s, code)
						return
					}
				}
			}
			if code := doJSON(t, c, "GET", srv.URL+"/v1/views/"+name+"/count", nil, &cnt); code != 200 {
				t.Errorf("%s: final count code=%d", name, code)
				return
			}
			counts[i] = cnt.Count
		}(i)
	}
	wg.Wait()

	// Ground truth: the same per-tenant trace into bare sequential DBs.
	for i := 0; i < views; i++ {
		name := fmt.Sprintf("tenant-%d", i)
		db, err := incshrink.Open(
			incshrink.ViewDef{Within: 5},
			incshrink.Options{T: 3, MaxLeft: 8, MaxRight: 8, Seed: runner.DeriveSeed(seed, name)},
		)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(runner.DeriveSeed(seed, name+"/rows")))
		nextKey := int64(1)
		for s := 0; s < steps; s++ {
			left, right := genStep(rng, s, 2, 5, &nextKey)
			if err := db.Advance(left, right); err != nil {
				t.Fatal(err)
			}
		}
		want, _ := db.Count()
		if counts[i] != want {
			t.Errorf("%s: served count %d != sequential %d", name, counts[i], want)
		}
	}
}

// TestHTTPBodyLimit asserts an oversized payload is refused during
// decoding instead of being buffered wholesale ahead of the block-size
// check.
func TestHTTPBodyLimit(t *testing.T) {
	reg := NewRegistry(Config{})
	defer reg.Close(t.Context())
	srv := httptest.NewServer(NewHandler(reg))
	defer srv.Close()
	c := srv.Client()

	if code := doJSON(t, c, "POST", srv.URL+"/v1/views",
		CreateRequest{Name: "v", Within: 5, Seed: 1}, nil); code != 201 {
		t.Fatalf("create: code=%d", code)
	}
	// The oversized content sits inside the JSON value, so the decoder
	// must read (and the reader must refuse) the whole thing.
	huge := append([]byte(`{"pad":"`), bytes.Repeat([]byte("x"), maxBodyBytes+1)...)
	huge = append(huge, `","left":[[1,0]]}`...)
	resp, err := c.Post(srv.URL+"/v1/views/v/advance", "application/json", bytes.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Errorf("oversized body: code=%d, want 400", resp.StatusCode)
	}
	if st, err := reg.Get("v"); err != nil || st.Stats().Stats.Step != 0 {
		t.Errorf("oversized body advanced the view: %v", err)
	}
}

func TestParseCmpRoundTrip(t *testing.T) {
	cases := map[string]incshrink.Cmp{
		"=": incshrink.Eq, "==": incshrink.Eq,
		"!=": incshrink.Ne,
		"<":  incshrink.Lt, "<=": incshrink.Le,
		">": incshrink.Gt, ">=": incshrink.Ge,
	}
	for op, want := range cases {
		got, err := ParseCmp(op)
		if err != nil || got != want {
			t.Errorf("ParseCmp(%q) = %v, %v", op, got, err)
		}
	}
	if _, err := ParseCmp("<>"); err == nil {
		t.Error("ParseCmp accepted <>")
	}
	if p, err := ParseProtocol(""); err != nil || p != incshrink.SDPTimer {
		t.Errorf("default protocol: %v, %v", p, err)
	}
	if p, err := ParseProtocol("ant"); err != nil || p != incshrink.SDPANT {
		t.Errorf("ant protocol: %v, %v", p, err)
	}
	if _, err := ParseProtocol("paxos"); err == nil {
		t.Error("ParseProtocol accepted paxos")
	}
}
