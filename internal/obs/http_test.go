package obs

import (
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
)

func scrape(t *testing.T, url string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("scrape %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(body)
}

// TestMetricsServerScrape pins the exposition surface: both routes serve
// the Prometheus text format with its versioned content type.
func TestMetricsServerScrape(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("xlayer_test_total", "test counter").Add(3)
	s, err := ServeMetrics("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	for _, url := range []string{s.URL(), "http://" + s.Addr() + "/"} {
		resp, body := scrape(t, url)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: status %d", url, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
			t.Errorf("%s: content type %q", url, ct)
		}
		if !strings.Contains(body, "xlayer_test_total 3") {
			t.Errorf("%s: exposition missing counter:\n%s", url, body)
		}
	}
}

// TestMetricsServerBindError: a taken port must surface as a returned
// error (the CLI turns it into a nonzero exit), not a background log line.
func TestMetricsServerBindError(t *testing.T) {
	reg := NewRegistry()
	first, err := ServeMetrics("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close()
	if _, err := ServeMetrics(first.Addr(), reg); err == nil {
		t.Fatal("second bind on the same address succeeded")
	}
}

// TestMetricsServerConcurrentScrape hammers the endpoint while the
// registry is being written — the -race interleaving a live workflow
// produces (workflow goroutine updating counters, Prometheus scraping).
func TestMetricsServerConcurrentScrape(t *testing.T) {
	reg := NewRegistry()
	ctr := reg.Counter("xlayer_test_total", "test counter")
	hist := reg.Histogram("xlayer_test_seconds", "test histogram", nil)
	s, err := ServeMetrics("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	stop := make(chan struct{})
	var writers sync.WaitGroup
	writers.Add(1)
	go func() {
		defer writers.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				ctr.Inc()
				reg.Gauge("xlayer_test_gauge", "").Set(float64(i))
				hist.Observe(float64(i % 7))
			}
		}
	}()
	var scrapers sync.WaitGroup
	for g := 0; g < 4; g++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			for i := 0; i < 25; i++ {
				resp, body := scrape(t, s.URL())
				if resp.StatusCode != http.StatusOK {
					t.Errorf("status %d", resp.StatusCode)
				}
				if !strings.Contains(body, "xlayer_test_total") {
					t.Error("counter vanished mid-scrape")
				}
			}
		}()
	}
	scrapers.Wait()
	close(stop)
	writers.Wait()
}

// TestMetricsServerClose: Close releases the port and is idempotent.
func TestMetricsServerClose(t *testing.T) {
	reg := NewRegistry()
	s, err := ServeMetrics("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	scrape(t, s.URL()) // server is live before the close

	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if _, err := http.Get(s.URL()); err == nil {
		t.Error("scrape succeeded after close")
	}
	if err := s.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
}
