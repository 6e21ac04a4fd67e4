package obs

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

// scrapeSeries renders reg and returns each series line's value keyed by
// name{labels}, in exposition order.
func scrapeSeries(t *testing.T, reg *Registry) (map[string]float64, []string) {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	vals := map[string]float64{}
	var order []string
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("bad series line %q: %v", line, err)
		}
		vals[line[:i]] = v
		order = append(order, line[:i])
	}
	return vals, order
}

// TestCounterTable holds the event→counter table to an independent
// statement of what every counted kind feeds. For each row, recording its
// event with a nil emitter moves exactly that row's series by 1 — the
// labelled one named by the event's field — and its bytes series by
// Event.Bytes; a kind with no row moves nothing; labelled series register
// in the declared order.
func TestCounterTable(t *testing.T) {
	cases := []struct {
		ev     Event
		series string // moves by 1
		bytes  string // moves by ev.Bytes; "" = no bytes series
	}{
		{FailoverGet(0, 1), "xlayer_staging_pool_failover_gets_total", ""},
		{Repair(1, 3, 300), "xlayer_staging_pool_repairs_total", ""},
		{RepairDelta(1, 2, 3, 4096), "xlayer_staging_pool_delta_repairs_total",
			"xlayer_staging_pool_repair_bytes_avoided_total"},
		{EndpointDown(1, 2), "xlayer_staging_pool_endpoint_down_total", ""},
		{AdmissionShed("max_conns", 2, 0), `xlayer_staging_admission_shed_total{reason="max_conns"}`, ""},
		{AdmissionShed("backlog_full", 2, 1), `xlayer_staging_admission_shed_total{reason="backlog_full"}`, ""},
		{QuotaRejected("t0", "t0/rho", 64), "xlayer_staging_admission_quota_rejected_total", ""},
		{StagingRetry(1, "boom"), "xlayer_staging_client_retries_total", ""},
		{StagingReconnect(), "xlayer_staging_client_reconnects_total", ""},
		{StagingDegrade("staging_failure", 2), "xlayer_staging_degraded_steps_total", ""},
		{ResourceResize(8, 16), "xlayer_staging_resizes_total", ""},
	}
	var kinds []Kind
	for _, tc := range cases {
		if len(kinds) == 0 || kinds[len(kinds)-1] != tc.ev.Kind {
			kinds = append(kinds, tc.ev.Kind)
		}
	}
	if len(kinds) != len(counterTable) {
		t.Fatalf("table has %d rows, this test states %d: keep them in step", len(counterTable), len(kinds))
	}

	record := func(ev Event) (moved map[string]float64) {
		reg := NewRegistry()
		c := NewCounts(reg, kinds...)
		before, _ := scrapeSeries(t, reg)
		c.Record(nil, ev)
		after, _ := scrapeSeries(t, reg)
		moved = map[string]float64{}
		for name, v := range after {
			if d := v - before[name]; d != 0 {
				moved[name] = d
			}
		}
		return moved
	}
	for _, tc := range cases {
		want := map[string]float64{tc.series: 1}
		if tc.bytes != "" {
			want[tc.bytes] = float64(tc.ev.Bytes)
		}
		got := record(tc.ev)
		if len(got) != len(want) {
			t.Errorf("%s (reason %q) moved %v, want %v", tc.ev.Kind, tc.ev.Reason, got, want)
			continue
		}
		for name, d := range want {
			if got[name] != d {
				t.Errorf("%s (reason %q) moved %v, want %v", tc.ev.Kind, tc.ev.Reason, got, want)
			}
		}
	}

	for _, ev := range []Event{EndpointUp(1), {Kind: KindStepFinished}, AdmissionShed("unknown", 0, 0)} {
		if got := record(ev); len(got) != 0 {
			t.Errorf("%s (reason %q) moved %v, want nothing", ev.Kind, ev.Reason, got)
		}
	}
	// A kind the component did not bind moves nothing either.
	reg := NewRegistry()
	NewCounts(reg, KindFailoverGet).Record(nil, StagingRetry(1, "x"))
	if vals, _ := scrapeSeries(t, reg); len(vals) != 1 || vals["xlayer_staging_pool_failover_gets_total"] != 0 {
		t.Errorf("unbound kind moved %v", vals)
	}

	reg = NewRegistry()
	NewCounts(reg, KindAdmissionShed)
	if _, order := scrapeSeries(t, reg); strings.Join(order, " ") !=
		`xlayer_staging_admission_shed_total{reason="max_conns"} xlayer_staging_admission_shed_total{reason="backlog_full"}` {
		t.Errorf("shed series registered as %v, want max_conns before backlog_full", order)
	}

	// Without a registry the counters are live, just unregistered.
	c := NewCounts(nil, KindFailoverGet)
	c.Record(nil, FailoverGet(0, 1))
	if got := c.Value(KindFailoverGet); got != 1 {
		t.Errorf("registry-less count = %v, want 1", got)
	}
}
