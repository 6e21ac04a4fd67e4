package spec

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"crosslayer/internal/obs"
	"crosslayer/internal/policy"
)

const goodSpec = `{
	"application": "advection-diffusion",
	"machine": "titan",
	"domain": [16, 16, 16],
	"ranks": 4,
	"periodic": true,
	"sim_cores": 1024,
	"staging_cores": 64,
	"cell_scale": 500,
	"steps": 6,
	"objective": "min-time-to-solution",
	"adapt": ["application", "middleware", "resource"],
	"factors": [2, 4],
	"isovalues": [0.1]
}`

func TestParseAndBuildRuns(t *testing.T) {
	w, err := Parse(strings.NewReader(goodSpec))
	if err != nil {
		t.Fatal(err)
	}
	wf, sim, err := w.Build()
	if err != nil {
		t.Fatal(err)
	}
	if sim.Name() != "AMRAdvectionDiffusion" {
		t.Errorf("built %s", sim.Name())
	}
	res := wf.Run(w.StepsOrDefault())
	if len(res.Steps) != 6 {
		t.Fatalf("ran %d steps", len(res.Steps))
	}
	for _, s := range res.Steps {
		if s.Factor < 2 {
			t.Errorf("step %d: application mechanism inactive", s.Step)
		}
	}
}

func TestParseGasWithReflux(t *testing.T) {
	w, err := Parse(strings.NewReader(`{
		"application": "polytropic-gas",
		"machine": "intrepid",
		"domain": [16, 16, 16],
		"reflux": true,
		"placement": "intransit",
		"steps": 2
	}`))
	if err != nil {
		t.Fatal(err)
	}
	wf, sim, err := w.Build()
	if err != nil {
		t.Fatal(err)
	}
	if sim.Name() != "AMRPolytropicGas" {
		t.Error("wrong application")
	}
	res := wf.Run(2)
	for _, s := range res.Steps {
		if s.Placement != policy.PlaceInTransit {
			t.Error("static placement not honored")
		}
	}
}

func TestParseEntropyBands(t *testing.T) {
	w, err := Parse(strings.NewReader(`{
		"application": "polytropic-gas",
		"domain": [16, 16, 16],
		"adapt": ["application", "middleware"],
		"entropy_bands": [{"below": 2.0, "factor": 4}],
		"steps": 2
	}`))
	if err != nil {
		t.Fatal(err)
	}
	wf, _, err := w.Build()
	if err != nil {
		t.Fatal(err)
	}
	res := wf.Run(2)
	for _, s := range res.Steps {
		if s.BytesAnalyzed >= s.BytesProduced {
			t.Error("entropy bands did not reduce anything")
		}
	}
}

func TestParseRejectsBadSpecs(t *testing.T) {
	bad := []string{
		`{"domain": [16,16,16]}`,                                 // missing application
		`{"application": "fluid", "domain": [16,16,16]}`,         // unknown app
		`{"application": "polytropic-gas", "domain": [2,16,16]}`, // tiny domain
		`{"application": "polytropic-gas", "domain": [16,16,16], "machine": "summit"}`,
		`{"application": "polytropic-gas", "domain": [16,16,16], "objective": "speed"}`,
		`{"application": "polytropic-gas", "domain": [16,16,16], "adapt": ["network"]}`,
		`{"application": "polytropic-gas", "domain": [16,16,16], "placement": "cloud"}`,
		`{"application": "polytropic-gas", "domain": [16,16,16], "factors": [0]}`,
		`{"application": "polytropic-gas", "domain": [16,16,16], "steps": -1}`,
		`{"application": "polytropic-gas", "domain": [16,16,16], "unknown_field": 1}`,
		`not json`,
	}
	for i, src := range bad {
		if _, err := Parse(strings.NewReader(src)); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
}

func TestStepsOrDefault(t *testing.T) {
	w := &Workflow{}
	if w.StepsOrDefault() != 20 {
		t.Error("default steps")
	}
	w.Steps = 7
	if w.StepsOrDefault() != 7 {
		t.Error("explicit steps")
	}
}

func TestStagingTCPSpecRuns(t *testing.T) {
	w, err := Parse(strings.NewReader(`{
		"application": "advection-diffusion",
		"domain": [16, 16, 16],
		"adapt": ["middleware"],
		"staging_tcp": true,
		"steps": 3
	}`))
	if err != nil {
		t.Fatal(err)
	}
	wf, _, err := w.Build()
	if err != nil {
		t.Fatal(err)
	}
	defer wf.Close()
	res := wf.Run(3)
	if len(res.Steps) != 3 {
		t.Fatalf("ran %d steps", len(res.Steps))
	}
	// A healthy loopback server must not cause degraded steps.
	for _, s := range res.Steps {
		if s.PlacementReason == policy.ReasonStagingFailure {
			t.Errorf("step %d degraded on a healthy server", s.Step)
		}
	}
}

// TestStagingTCPFaultSpecDegrades: against a one-server pool whose listener
// refuses every connection, every step degrades to in-situ, and the event
// log names the cause — the pool's breaker opens on the dead endpoint
// (endpoint_down) — before a degraded step reports it.
func TestStagingTCPFaultSpecDegrades(t *testing.T) {
	events := filepath.Join(t.TempDir(), "events.jsonl")
	w, err := Parse(strings.NewReader(fmt.Sprintf(`{
		"application": "advection-diffusion",
		"domain": [16, 16, 16],
		"placement": "intransit",
		"staging_tcp": true,
		"fault": {"seed": 7, "refuse_accepts": -1},
		"staging_failure_cooldown": -1,
		"events": %q,
		"steps": 3
	}`, events)))
	if err != nil {
		t.Fatal(err)
	}
	wf, _, err := w.Build()
	if err != nil {
		t.Fatal(err)
	}
	res := wf.Run(3)
	if err := wf.Close(); err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Steps {
		if s.PlacementReason != policy.ReasonStagingFailure {
			t.Errorf("step %d reason = %q against a refuse-all server, want %q",
				s.Step, s.PlacementReason, policy.ReasonStagingFailure)
		}
	}
	if res.Steps[0].StagingRetries == 0 {
		t.Error("step 0 degraded with zero retries")
	}
	f, err := os.Open(events)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	evs, err := obs.ReadEvents(f)
	if err != nil {
		t.Fatal(err)
	}
	down, degradedAfter := false, 0
	for _, ev := range evs {
		switch {
		case ev.Kind == obs.KindEndpointDown:
			down = true
		case ev.Kind == obs.KindStagingDegrade && down:
			degradedAfter++
		}
	}
	if !down || degradedAfter == 0 {
		t.Fatalf("event log shows no endpoint_down followed by a degraded step (down=%t, degraded after=%d)",
			down, degradedAfter)
	}
}

func TestFaultSpecValidation(t *testing.T) {
	bad := []string{
		// fault without staging_tcp
		`{"application": "polytropic-gas", "domain": [16,16,16],
		  "fault": {"seed": 1}}`,
		// invalid plan rates
		`{"application": "polytropic-gas", "domain": [16,16,16],
		  "staging_tcp": true, "fault": {"seed": 1, "corrupt_rate": 2.0}}`,
	}
	for i, src := range bad {
		if _, err := Parse(strings.NewReader(src)); err == nil {
			t.Errorf("bad fault spec %d accepted", i)
		}
	}
}

// TestSpecObservability: the events/metrics_addr fields must produce a
// live /metrics endpoint during the run and a summarizable event log.
func TestSpecObservability(t *testing.T) {
	dir := t.TempDir()
	eventsPath := filepath.Join(dir, "events.jsonl")
	w, err := Parse(strings.NewReader(fmt.Sprintf(`{
		"application": "polytropic-gas",
		"domain": [16, 16, 16],
		"adapt": ["application", "middleware", "resource"],
		"staging_tcp": true,
		"events": %q,
		"metrics_addr": "127.0.0.1:0",
		"steps": 3
	}`, eventsPath)))
	if err != nil {
		t.Fatal(err)
	}
	wf, _, err := w.Build()
	if err != nil {
		t.Fatal(err)
	}
	addr := w.BoundMetricsAddr()
	if addr == "" {
		t.Fatal("metrics_addr did not bind")
	}
	wf.Run(3)

	// Scrape while the run's resources are still alive.
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"xlayer_steps_total 3", "xlayer_staging_server_requests_total"} {
		if !strings.Contains(string(body), want) {
			t.Errorf("scrape missing %q:\n%s", want, body)
		}
	}

	if err := wf.Close(); err != nil {
		t.Fatal(err)
	}
	// After Close the endpoint is down and the event log is flushed.
	if _, err := http.Get("http://" + addr + "/metrics"); err == nil {
		t.Error("metrics endpoint still up after Close")
	}
	f, err := os.Open(eventsPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := obs.ReadEvents(f)
	if err != nil {
		t.Fatal(err)
	}
	sum := obs.SummarizeEvents(events)
	if sum.Steps != 3 || sum.ByKind[obs.KindPolicyDecision] == 0 {
		t.Fatalf("event log incomplete: %+v", sum)
	}
}
