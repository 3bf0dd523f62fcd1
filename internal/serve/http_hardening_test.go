package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"incshrink"
)

// postRaw sends a raw body (not marshalled), for malformed-payload cases.
func postRaw(t *testing.T, client *http.Client, url, body string) int {
	t.Helper()
	resp, err := client.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestHTTPRejectsHostileCreateBodies is the handler half of the
// negative-field satellite: every malformed create body must be a 400 —
// never a silently defaulted view, and never a 500.
func TestHTTPRejectsHostileCreateBodies(t *testing.T) {
	reg := NewRegistry(Config{})
	defer reg.Close(context.Background())
	srv := httptest.NewServer(NewHandler(reg))
	defer srv.Close()
	c := srv.Client()

	cases := []struct {
		name string
		body string
	}{
		{"negative-epsilon", `{"name":"v","within":5,"epsilon":-1.5}`},
		{"negative-t", `{"name":"v","within":5,"t":-10}`},
		{"negative-theta", `{"name":"v","within":5,"theta":-30}`},
		{"negative-upload-every", `{"name":"v","within":5,"upload_every":-1}`},
		{"negative-max-left", `{"name":"v","within":5,"max_left":-32}`},
		{"negative-max-right", `{"name":"v","within":5,"max_right":-32}`},
		{"negative-omega", `{"name":"v","within":5,"omega":-1}`},
		{"negative-budget", `{"name":"v","within":5,"budget":-2}`},
		{"negative-within", `{"name":"v","within":-5}`},
		{"empty-name", `{"within":5}`},
		{"unknown-field", `{"name":"v","within":5,"epsilom":1.5}`},
		{"trailing-garbage", `{"name":"v","within":5}{"more":1}`},
		{"trailing-token", `{"name":"v","within":5} 42`},
		{"not-json", `hello`},
		{"bad-protocol", `{"name":"v","within":5,"protocol":"sDPWAT"}`},
		// Public sizes past the engine's cap: refused before anything is padded.
		{"unbounded-window-and-budget", `{"name":"v","within":9223372036854775807,"budget":9223372036854775807}`},
		{"huge-window-and-budget", `{"name":"v","within":1099511627776,"budget":1099511627776}`},
		{"huge-block", `{"name":"v","within":5,"max_left":1099511627776}`},
		// 2^20 padded join rows: under the old cap, ≈ 1 s and 266 MB of heap
		// over the first two steps.
		{"million-row-join", `{"name":"v","within":0,"max_left":524288,"max_right":524288}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if code := postRaw(t, c, srv.URL+"/v1/views", tc.body); code != http.StatusBadRequest {
				t.Fatalf("create %s -> %d, want 400", tc.body, code)
			}
		})
	}
	if got := reg.Len(); got != 0 {
		t.Fatalf("%d views registered by rejected bodies", got)
	}
	// The same fields through the happy path still work. A window of MaxInt64
	// steps is bounded by the default budget: ten invocations per record.
	for _, body := range []string{
		`{"name":"v","within":5,"epsilon":1.5,"t":10}`,
		`{"name":"w","within":9223372036854775807}`,
	} {
		if code := postRaw(t, c, srv.URL+"/v1/views", body); code != http.StatusCreated {
			t.Fatalf("valid create %s -> %d, want 201", body, code)
		}
	}
}

// TestHTTPRejectsHostileAdvanceBodies covers the ingest route: malformed
// rows and strict-decode violations are 400s, and the rejected step does
// not advance the view's clock.
func TestHTTPRejectsHostileAdvanceBodies(t *testing.T) {
	reg := NewRegistry(Config{})
	defer reg.Close(context.Background())
	srv := httptest.NewServer(NewHandler(reg))
	defer srv.Close()
	c := srv.Client()

	if code := postRaw(t, c, srv.URL+"/v1/views", `{"name":"v","within":5,"max_left":4,"max_right":4}`); code != 201 {
		t.Fatal("create")
	}
	cases := []string{
		`{"left":[[1]]}`,                           // row below {key, time}
		`{"left":[[1,0]],"right":[[2]]}`,           // malformed right after valid left
		`{"left":[[1,0],[2,0],[3,0],[4,0],[5,0]]}`, // exceeds block size
		`{"left":[[1,0]],"bonus":true}`,            // unknown field
		`{"left":[[1,0]]} trailing`,                // trailing garbage
	}
	for _, body := range cases {
		if code := postRaw(t, c, srv.URL+"/v1/views/v/advance", body); code != http.StatusBadRequest {
			t.Fatalf("advance %s -> %d, want 400", body, code)
		}
	}
	var st StatusJSON
	if code := doJSON(t, c, "GET", srv.URL+"/v1/views/v/stats", nil, &st); code != 200 {
		t.Fatal("stats")
	}
	if st.Stats.Step != 0 {
		t.Fatalf("rejected advances moved the clock to %d", st.Stats.Step)
	}
}

// TestStatusForMapping pins the status mapping directly, including the
// default: an unrecognized internal error is a 500, not the client's fault.
func TestStatusForMapping(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{ErrNotFound, 404},
		{ErrExists, 409},
		{ErrBusy, 503},
		{ErrClosed, 503},
		{ErrNoDataDir, 409},
		{incshrink.ErrInvalidArgument, 400},
		{fmt.Errorf("wrapped: %w", incshrink.ErrInvalidArgument), 400},
		{errors.New("disk on fire"), 500},
		{context.DeadlineExceeded, 500},
	}
	for _, tc := range cases {
		if got := statusFor(tc.err); got != tc.want {
			t.Errorf("statusFor(%v) = %d, want %d", tc.err, got, tc.want)
		}
	}
}
