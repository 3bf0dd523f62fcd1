package obs

import (
	"io"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestPrometheusFormatBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("incshrink_test_total", "things counted")
	c.Add(3)
	g := r.Gauge("incshrink_test_gauge", "a level")
	g.Set(1.5)
	text := r.DumpText()
	for _, want := range []string{
		"# HELP incshrink_test_total things counted\n",
		"# TYPE incshrink_test_total counter\n",
		"incshrink_test_total 3\n",
		"# TYPE incshrink_test_gauge gauge\n",
		"incshrink_test_gauge 1.5\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
}

func TestFamiliesSortedAndEmptySkipped(t *testing.T) {
	r := NewRegistry()
	r.Counter("zzz_total", "").Inc()
	r.Counter("aaa_total", "").Inc()
	r.CounterVec("empty_total", "no series yet", "op") // no With: no series
	text := r.DumpText()
	if strings.Contains(text, "empty_total") {
		t.Errorf("family with no series should not be exposed:\n%s", text)
	}
	if strings.Index(text, "aaa_total") > strings.Index(text, "zzz_total") {
		t.Errorf("families not sorted:\n%s", text)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("esc_total", "help with \\ backslash\nand newline", "name")
	v.With("a\"b\\c\nd").Inc()
	text := r.DumpText()
	if !strings.Contains(text, `# HELP esc_total help with \\ backslash\nand newline`) {
		t.Errorf("HELP not escaped:\n%s", text)
	}
	if !strings.Contains(text, `esc_total{name="a\"b\\c\nd"} 1`) {
		t.Errorf("label value not escaped:\n%s", text)
	}
}

func TestHistogramExposition(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "latency", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 5, 50} {
		h.Observe(v)
	}
	text := r.DumpText()
	for _, want := range []string{
		`lat_seconds_bucket{le="0.1"} 1`,
		`lat_seconds_bucket{le="1"} 2`,
		`lat_seconds_bucket{le="10"} 3`,
		`lat_seconds_bucket{le="+Inf"} 4`,
		`lat_seconds_sum 55.55`,
		`lat_seconds_count 4`,
	} {
		if !strings.Contains(text, want+"\n") {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
}

// parseBuckets extracts the cumulative bucket counts of one histogram
// series, in exposition order.
func parseBuckets(t *testing.T, text, name string) []uint64 {
	t.Helper()
	var out []uint64
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, name+"_bucket{") {
			continue
		}
		_, val, ok := strings.Cut(line, "} ")
		if !ok {
			t.Fatalf("malformed bucket line %q", line)
		}
		n, err := strconv.ParseUint(val, 10, 64)
		if err != nil {
			t.Fatalf("bucket value %q: %v", val, err)
		}
		out = append(out, n)
	}
	return out
}

func TestHistogramBucketMonotonicity(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("mono_seconds", "", ExpBuckets(0.001, 2, 12))
	for i := 0; i < 500; i++ {
		h.Observe(float64(i%17) * 0.003)
	}
	buckets := parseBuckets(t, r.DumpText(), "mono_seconds")
	if len(buckets) != 13 { // 12 bounds + +Inf
		t.Fatalf("got %d bucket lines, want 13", len(buckets))
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] < buckets[i-1] {
			t.Fatalf("cumulative buckets decreased at %d: %v", i, buckets)
		}
	}
	if buckets[len(buckets)-1] != 500 {
		t.Fatalf("+Inf bucket = %d, want 500", buckets[len(buckets)-1])
	}
}

// TestConcurrentScrapeVsUpdate races continuous observations against
// scrapes and asserts every rendered scrape is internally consistent:
// cumulative buckets monotone and +Inf equal to _count. Run under -race
// this also proves the instruments are data-race free.
func TestConcurrentScrapeVsUpdate(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("race_seconds", "", ExpBuckets(0.001, 4, 8))
	c := r.Counter("race_total", "")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			v := float64(seed+1) * 0.0007
			for {
				select {
				case <-stop:
					return
				default:
				}
				h.Observe(v)
				c.Inc()
			}
		}(w)
	}
	for i := 0; i < 50; i++ {
		text := r.DumpText()
		buckets := parseBuckets(t, text, "race_seconds")
		for j := 1; j < len(buckets); j++ {
			if buckets[j] < buckets[j-1] {
				close(stop)
				wg.Wait()
				t.Fatalf("scrape %d: cumulative buckets decreased: %v", i, buckets)
			}
		}
	}
	close(stop)
	wg.Wait()
	// A final quiescent scrape must agree exactly with the in-memory totals.
	text := r.DumpText()
	buckets := parseBuckets(t, text, "race_seconds")
	if got := buckets[len(buckets)-1]; got != uint64(c.Value()) {
		t.Fatalf("+Inf = %d, observations = %v", got, c.Value())
	}
}

func TestHTTPHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("handler_total", "via http").Inc()
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "handler_total 1") {
		t.Errorf("body missing sample:\n%s", body)
	}
}
