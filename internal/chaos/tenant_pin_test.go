package chaos

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"testing"
)

// logSum renders a log image as "length:fnv1a64".
func logSum(b []byte) string {
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%d:%016x", len(b), h.Sum64())
}

// TestTwoTenantRunsPinned pins the event log, span log and step records of
// two two-tenant schedules byte for byte: the workflow tenant and the quota-
// squeezed probe tenant share one pool, once on the inline executor under a
// kill, a revive and a driver crash, once on worker queues with no faults.
// A refactor of how tenant handles reach the pool, the workflow's store
// faces, or the resume path that moves a byte of either run fails here.
func TestTwoTenantRunsPinned(t *testing.T) {
	for _, pin := range []struct {
		s                   Schedule
		events, spans, recs string
	}{
		{
			s: Schedule{
				Seed: 11, Steps: 8, Servers: 3, Replicas: 2, Concurrency: 1,
				Tenants: 2, QuotaBytes: 48 << 10,
				Kills: []Kill{{Server: 1, At: 2, Revive: 5}},
				Crash: &Crash{At: 4},
			},
			events: "4734:100d526651796f55",
			spans:  "57553:f72fbdf6a4c82b43",
			recs:   "4406:07bde421758e2ca7",
		},
		{
			s: Schedule{
				Seed: 12, Steps: 8, Servers: 3, Replicas: 2, Concurrency: 2,
				Tenants: 2, QuotaBytes: 48 << 10,
			},
			events: "3599:d5a8399b3215ee57",
			spans:  "60319:05bd760b83658bff",
			recs:   "4406:13f981dddaffc8b3",
		},
	} {
		rr, err := Run(pin.s)
		if err != nil {
			t.Fatalf("seed %d: run: %v", pin.s.Seed, err)
		}
		for _, v := range rr.Violations {
			t.Errorf("seed %d: %v", pin.s.Seed, v)
		}
		recs, err := json.Marshal(rr.Steps)
		if err != nil {
			t.Fatal(err)
		}
		for _, got := range []struct{ name, got, want string }{
			{"event log", logSum(rr.EventLog), pin.events},
			{"span log", logSum(rr.SpanLog), pin.spans},
			{"step records", logSum(recs), pin.recs},
		} {
			if got.got != got.want {
				t.Errorf("seed %d: %s moved: %s, pinned %s", pin.s.Seed, got.name, got.got, got.want)
			}
		}
	}
}
