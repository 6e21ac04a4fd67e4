package obs

import (
	"fmt"
	"io"
	"sort"
)

// EventSummary aggregates an event log into the counts a human wants first
// when triaging a run: what fired, how often, and why.
type EventSummary struct {
	Events int
	Steps  int

	// ByKind counts events per kind.
	ByKind map[Kind]int
	// PlacementChanges counts placement flips by reason.
	PlacementChanges map[string]int
	// Decisions counts policy decisions by layer.
	Decisions map[string]int

	// EndToEnd is the run_finished event's seconds (0 when absent).
	EndToEnd float64
}

// SummarizeEvents aggregates evs.
func SummarizeEvents(evs []Event) EventSummary {
	s := EventSummary{
		ByKind:           make(map[Kind]int),
		PlacementChanges: make(map[string]int),
		Decisions:        make(map[string]int),
	}
	maxStep := -1
	for _, ev := range evs {
		s.Events++
		s.ByKind[ev.Kind]++
		if ev.Step > maxStep {
			maxStep = ev.Step
		}
		switch ev.Kind {
		case KindPlacementChange:
			s.PlacementChanges[ev.Reason]++
		case KindPolicyDecision:
			s.Decisions[ev.Layer]++
		case KindRunFinished:
			s.EndToEnd = ev.Seconds
		}
	}
	s.Steps = maxStep + 1
	return s
}

// WriteText renders the summary for terminals.
func (s EventSummary) WriteText(w io.Writer) error {
	fmt.Fprintf(w, "event log: %d events across %d steps\n", s.Events, s.Steps)
	if len(s.ByKind) > 0 {
		fmt.Fprintln(w, "events by kind:")
		for _, k := range SortedKeys(s.ByKind) {
			fmt.Fprintf(w, "  %-18s %d\n", string(k), s.ByKind[k])
		}
	}
	if len(s.Decisions) > 0 {
		fmt.Fprintln(w, "policy decisions by layer:")
		for _, k := range SortedKeys(s.Decisions) {
			fmt.Fprintf(w, "  %-12s %d\n", k, s.Decisions[k])
		}
	}
	if len(s.PlacementChanges) > 0 {
		fmt.Fprintln(w, "placement changes by reason:")
		for _, k := range SortedKeys(s.PlacementChanges) {
			fmt.Fprintf(w, "  %-44s %d\n", k, s.PlacementChanges[k])
		}
	}
	n := s.ByKind
	if n[KindStagingRetry]+n[KindStagingReconnect]+n[KindStagingDegrade] > 0 {
		fmt.Fprintf(w, "staging transport: %d retries, %d reconnects, %d degraded steps\n",
			n[KindStagingRetry], n[KindStagingReconnect], n[KindStagingDegrade])
	}
	if n[KindEndpointDown]+n[KindEndpointUp]+n[KindFailoverGet]+n[KindRepair] > 0 {
		fmt.Fprintf(w, "staging pool: %d endpoint outages, %d rejoins, %d failover gets, %d repairs\n",
			n[KindEndpointDown], n[KindEndpointUp], n[KindFailoverGet], n[KindRepair])
	}
	if n[KindResourceResize] > 0 {
		fmt.Fprintf(w, "staging pool resizes: %d\n", n[KindResourceResize])
	}
	if s.EndToEnd > 0 {
		fmt.Fprintf(w, "end-to-end (virtual): %.3fs\n", s.EndToEnd)
	}
	return nil
}

// SortedKeys returns m's keys in ascending order — the iteration order of
// every report this tree prints from a map.
func SortedKeys[K ~string, V any](m map[K]V) []K {
	out := make([]K, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
