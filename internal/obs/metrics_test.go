package obs

import (
	"bufio"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("xlayer_test_total", "help")
	c.Inc()
	c.Add(2.5)
	c.Add(-1) // ignored: counters only go up
	if got := c.Value(); got != 3.5 {
		t.Errorf("counter = %g", got)
	}
	if r.Counter("xlayer_test_total", "help") != c {
		t.Error("get-or-create returned a different counter")
	}
	if r.Counter("xlayer_test_total", "help", "op", "put") == c {
		t.Error("distinct label set returned the same counter")
	}

	g := r.Gauge("xlayer_gauge", "help")
	g.Set(5)
	g.Add(-2)
	if got := g.Value(); got != 3 {
		t.Errorf("gauge = %g", got)
	}
}

func TestNilRegistryReturnsLiveInstruments(t *testing.T) {
	var r *Registry
	c := r.Counter("x", "")
	c.Inc()
	if c.Value() != 1 {
		t.Error("nil-registry counter not usable")
	}
	h := r.Histogram("y", "", nil)
	h.Observe(1)
	if h.Count() != 1 {
		t.Error("nil-registry histogram not usable")
	}
	var buf strings.Builder
	if err := r.WritePrometheus(&buf); err != nil || buf.Len() != 0 {
		t.Error("nil registry should render nothing")
	}
}

func TestHistogramObserveAndQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("xlayer_lat_seconds", "help", []float64{1, 2, 4, 8})
	for _, v := range []float64{0.5, 1.5, 1.6, 3, 3.5, 7, 100} {
		h.Observe(v)
	}
	if h.Count() != 7 {
		t.Errorf("count = %d", h.Count())
	}
	if math.Abs(h.Sum()-117.1) > 1e-9 {
		t.Errorf("sum = %g", h.Sum())
	}
}

// TestPrometheusExpositionParses renders a populated registry and runs a
// strict line-level parse: every line must be a comment or a
// `name{labels} value` sample, histogram buckets must be cumulative, and
// _count must equal the +Inf bucket.
func TestPrometheusExpositionParses(t *testing.T) {
	r := NewRegistry()
	r.Counter("xlayer_steps_total", "steps run").Add(20)
	r.Counter("xlayer_staging_requests_total", "reqs", "op", "put").Add(5)
	r.Counter("xlayer_staging_requests_total", "reqs", "op", "get").Add(3)
	r.Gauge("xlayer_staging_cores", "pool size").Set(64)
	h := r.Histogram("xlayer_sim_seconds", "sim time", []float64{0.1, 1, 10})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(50)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()

	var lastBucket uint64
	var infCount, totalCount uint64
	samples := 0
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "# ") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("unparseable sample line %q", line)
		}
		if _, err := strconv.ParseFloat(val, 64); err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		base := name
		if i := strings.IndexByte(name, '{'); i >= 0 {
			base = name[:i]
			if !strings.HasSuffix(name, "}") {
				t.Fatalf("unterminated label set in %q", line)
			}
		}
		for _, r := range base {
			if !(r == '_' || r == ':' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9')) {
				t.Fatalf("invalid metric name %q", base)
			}
		}
		samples++
		if strings.HasPrefix(name, "xlayer_sim_seconds_bucket") {
			n, _ := strconv.ParseUint(val, 10, 64)
			if n < lastBucket {
				t.Fatalf("bucket counts not cumulative at %q", line)
			}
			lastBucket = n
			if strings.Contains(name, `le="+Inf"`) {
				infCount = n
			}
		}
		if name == "xlayer_sim_seconds_count" {
			totalCount, _ = strconv.ParseUint(val, 10, 64)
		}
	}
	if samples < 8 {
		t.Fatalf("only %d samples rendered:\n%s", samples, text)
	}
	if infCount != 3 || totalCount != 3 {
		t.Fatalf("+Inf bucket %d / count %d, want 3/3", infCount, totalCount)
	}
	if !strings.Contains(text, `xlayer_staging_requests_total{op="put"} 5`) {
		t.Errorf("labeled counter missing:\n%s", text)
	}
	if !strings.Contains(text, "# TYPE xlayer_sim_seconds histogram") {
		t.Error("histogram TYPE line missing")
	}
}

// TestRegistryConcurrentUpdates hammers the registry from many goroutines
// while exposition runs — the -race gate for the lock-cheap instrument
// design.
func TestRegistryConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	const workers, iters = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			op := "put"
			if w%2 == 1 {
				op = "get"
			}
			for i := 0; i < iters; i++ {
				r.Counter("xlayer_conc_total", "c", "op", op).Inc()
				r.Gauge("xlayer_conc_gauge", "g").Add(1)
				r.Histogram("xlayer_conc_seconds", "h", nil).Observe(float64(i%7) / 10)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			r.WritePrometheus(io.Discard)
		}
	}()
	wg.Wait()
	<-done

	got := r.Counter("xlayer_conc_total", "c", "op", "put").Value() +
		r.Counter("xlayer_conc_total", "c", "op", "get").Value()
	if got != workers*iters {
		t.Errorf("lost counter updates: %g, want %d", got, workers*iters)
	}
	if n := r.Histogram("xlayer_conc_seconds", "h", nil).Count(); n != workers*iters {
		t.Errorf("lost histogram updates: %d, want %d", n, workers*iters)
	}
	if g := r.Gauge("xlayer_conc_gauge", "g").Value(); g != workers*iters {
		t.Errorf("lost gauge updates: %g, want %d", g, workers*iters)
	}
}

func TestMetricsHTTPEndpoint(t *testing.T) {
	r := NewRegistry()
	r.Counter("xlayer_http_total", "served").Add(7)
	srv, err := ServeMetrics("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	resp, err := http.Get(srv.URL())
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	if !strings.Contains(string(body), "xlayer_http_total 7") {
		t.Errorf("scrape missing counter:\n%s", body)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}
