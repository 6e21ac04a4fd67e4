package loadgen

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func entryMetric(t *testing.T, rep map[string]map[string]float64, name, metric string) float64 {
	t.Helper()
	m, ok := rep[name]
	if !ok {
		t.Fatalf("report has no entry %q", name)
	}
	v, ok := m[metric]
	if !ok {
		t.Fatalf("entry %q has no metric %q", name, metric)
	}
	return v
}

func runOnce(t *testing.T, o Options) map[string]map[string]float64 {
	t.Helper()
	rep, err := Run(o)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	out := make(map[string]map[string]float64)
	for _, e := range rep.Entries {
		out[e.Name] = e.Metrics
	}
	return out
}

// Two invocations at the same seed must produce byte-identical per-tenant
// logs, and every tenant's closing audit must come back clean.
func TestDeterministicTenantLogs(t *testing.T) {
	dirA := filepath.Join(t.TempDir(), "a")
	dirB := filepath.Join(t.TempDir(), "b")
	base := Options{Tenants: 4, Short: true, Seed: 7, MaxConns: 3, Backlog: 1}

	oA := base
	oA.LogDir = dirA
	repA := runOnce(t, oA)
	oB := base
	oB.LogDir = dirB
	runOnce(t, oB)

	for i := 0; i < base.Tenants; i++ {
		name := TenantID(i) + ".jsonl"
		a, err := os.ReadFile(filepath.Join(dirA, name))
		if err != nil {
			t.Fatalf("read log: %v", err)
		}
		b, err := os.ReadFile(filepath.Join(dirB, name))
		if err != nil {
			t.Fatalf("read log: %v", err)
		}
		if len(a) == 0 {
			t.Fatalf("%s: empty log", name)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s: logs differ between invocations at the same seed", name)
		}
	}

	for _, metric := range []string{"audit_missing_total", "manifest_leak_total", "checksum_mismatch_total"} {
		if v := entryMetric(t, repA, "loadgen/aggregate", metric); v != 0 {
			t.Errorf("aggregate %s = %v, want 0", metric, v)
		}
	}
}

// With more tenants than connection slots the servers must shed
// deterministically (refuse-with-reason) while every tenant still
// completes and audits clean.
func TestShedsAtMaxConns(t *testing.T) {
	rep := runOnce(t, Options{
		Tenants:  8,
		Short:    true,
		Seed:     3,
		MaxConns: 2,
		Backlog:  0,
	})
	if shed := entryMetric(t, rep, "loadgen/aggregate", "admission_shed_total"); shed < 1 {
		t.Errorf("admission_shed_total = %v, want >= 1 with 8 tenants over 2 slots", shed)
	}
	if leaks := entryMetric(t, rep, "loadgen/aggregate", "manifest_leak_total"); leaks != 0 {
		t.Errorf("manifest_leak_total = %v, want 0", leaks)
	}
	if mism := entryMetric(t, rep, "loadgen/aggregate", "checksum_mismatch_total"); mism != 0 {
		t.Errorf("checksum_mismatch_total = %v, want 0", mism)
	}
}

// A tight per-tenant byte quota must surface as quota rejections on both
// the client and server side without wedging the run.
func TestQuotaRejectionsSurface(t *testing.T) {
	rep := runOnce(t, Options{
		Tenants:    2,
		Short:      true,
		Seed:       5,
		MaxConns:   -1, // unlimited: isolate the quota path
		QuotaBytes: 8 * 1024,
	})
	if srv := entryMetric(t, rep, "loadgen/aggregate", "quota_rejected_total"); srv < 1 {
		t.Errorf("server quota_rejected_total = %v, want >= 1", srv)
	}
	if cli := entryMetric(t, rep, "loadgen/aggregate", "client_quota_rejected"); cli < 1 {
		t.Errorf("client_quota_rejected = %v, want >= 1", cli)
	}
}

// An unlimited-admission run must see zero sheds and zero restarts: the
// contention machinery only engages when configured.
func TestUnlimitedAdmissionIsQuiet(t *testing.T) {
	rep := runOnce(t, Options{Tenants: 3, Short: true, Seed: 11, MaxConns: -1})
	if shed := entryMetric(t, rep, "loadgen/aggregate", "admission_shed_total"); shed != 0 {
		t.Errorf("admission_shed_total = %v, want 0 when unlimited", shed)
	}
	if rs := entryMetric(t, rep, "loadgen/aggregate", "restarts_total"); rs != 0 {
		t.Errorf("restarts_total = %v, want 0 when unlimited", rs)
	}
}

// The report types moved here from the retired internal/bench; the bytes
// Write produces are what readers of loadgen-report.json parse, so they are
// pinned: same keys, same order, same indentation, metrics omitted when nil.
func TestReportWriteBytes(t *testing.T) {
	r := &Report{Schema: Schema, Short: true, Entries: []Entry{
		{Name: "loadgen/t00", N: 3, NsPerOp: 4e8, Metrics: map[string]float64{"steps_per_sec": 2.5}},
		{Name: "loadgen/aggregate", N: 6},
	}}
	var buf bytes.Buffer
	if err := r.Write(&buf); err != nil {
		t.Fatal(err)
	}
	const want = `{
  "schema": "xlayer-bench/v1",
  "short": true,
  "entries": [
    {
      "name": "loadgen/t00",
      "n": 3,
      "ns_per_op": 400000000,
      "metrics": {
        "steps_per_sec": 2.5
      }
    },
    {
      "name": "loadgen/aggregate",
      "n": 6,
      "ns_per_op": 0
    }
  ]
}
`
	if got := buf.String(); got != want {
		t.Errorf("Report.Write =\n%s\nwant\n%s", got, want)
	}
}

// TestIsolationVerdict holds the tenant-isolation verdict to the aggregate
// entry's three counts: any nonzero one is an ErrIsolation carrying all
// three, and a clean aggregate (or a report without one) is no error.
func TestIsolationVerdict(t *testing.T) {
	report := func(leaks, mismatches, missing float64) *Report {
		return &Report{Schema: Schema, Entries: []Entry{
			{Name: "loadgen/t00", Metrics: map[string]float64{"manifest_leaks": leaks}},
			{Name: "loadgen/aggregate", Metrics: map[string]float64{
				"manifest_leak_total":     leaks,
				"checksum_mismatch_total": mismatches,
				"audit_missing_total":     missing,
			}},
		}}
	}
	var iso ErrIsolation
	if err := report(1, 0, 2).isolation(); !errors.As(err, &iso) ||
		iso != (ErrIsolation{Leaks: 1, Mismatches: 0, Missing: 2}) {
		t.Errorf("leaky report: err = %v, want ErrIsolation{1 0 2}", err)
	}
	if err := report(0, 3, 0).isolation(); !errors.As(err, &iso) || iso.Mismatches != 3 {
		t.Errorf("mismatching report: err = %v, want ErrIsolation with 3 mismatches", err)
	}
	if err := report(0, 0, 0).isolation(); err != nil {
		t.Errorf("clean report: err = %v, want nil", err)
	}
	if err := (&Report{Schema: Schema}).isolation(); err != nil {
		t.Errorf("report without an aggregate: err = %v, want nil", err)
	}
}
