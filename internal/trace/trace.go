// Package trace serializes workflow run records for offline analysis —
// CSV for spreadsheets/plotting and JSON Lines for scripting. The CLI's
// run mode and the experiment harnesses use it to persist per-step
// adaptation decisions.
package trace

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"strconv"

	"crosslayer/internal/core"
	"crosslayer/internal/obs"
	"crosslayer/internal/policy"
)

// column is one exported field of the per-step record: its CSV header and
// JSONL key, whether JSONL drops it when zero, and how to read it out of and
// parse it into a record. columns is the one place the trace format lists
// its fields; all four codecs below walk it.
type column struct {
	name      string
	omitEmpty bool
	get       func(*core.StepRecord) any           // int, int64, float64 or string
	set       func(*core.StepRecord, string) error // from the value's text form
}

func intCol(name string, omitEmpty bool, field func(*core.StepRecord) *int) column {
	return column{name, omitEmpty,
		func(r *core.StepRecord) any { return *field(r) },
		func(r *core.StepRecord, s string) (err error) { *field(r), err = strconv.Atoi(s); return }}
}

func int64Col(name string, field func(*core.StepRecord) *int64) column {
	return column{name, false,
		func(r *core.StepRecord) any { return *field(r) },
		func(r *core.StepRecord, s string) (err error) { *field(r), err = strconv.ParseInt(s, 10, 64); return }}
}

func floatCol(name string, omitEmpty bool, field func(*core.StepRecord) *float64) column {
	return column{name, omitEmpty,
		func(r *core.StepRecord) any { return *field(r) },
		func(r *core.StepRecord, s string) (err error) { *field(r), err = strconv.ParseFloat(s, 64); return }}
}

// columns lists the exported fields, in CSV column and JSONL key order.
var columns = []column{
	intCol("step", false, func(r *core.StepRecord) *int { return &r.Step }),
	intCol("factor", false, func(r *core.StepRecord) *int { return &r.Factor }),
	// Strict: an unknown (or, in JSONL, absent) placement is an error, never
	// a silent in-situ.
	{"placement", false,
		func(r *core.StepRecord) any { return r.Placement.String() },
		func(r *core.StepRecord, s string) (err error) { r.Placement, err = policy.ParsePlacement(s); return }},
	{"placement_reason", true,
		func(r *core.StepRecord) any { return r.PlacementReason },
		func(r *core.StepRecord, s string) error { r.PlacementReason = s; return nil }},
	floatCol("sim_seconds", false, func(r *core.StepRecord) *float64 { return &r.SimSeconds }),
	floatCol("reduce_seconds", true, func(r *core.StepRecord) *float64 { return &r.ReduceSeconds }),
	floatCol("analysis_seconds", false, func(r *core.StepRecord) *float64 { return &r.AnalysisSeconds }),
	floatCol("transfer_seconds", true, func(r *core.StepRecord) *float64 { return &r.TransferSeconds }),
	int64Col("bytes_produced", func(r *core.StepRecord) *int64 { return &r.BytesProduced }),
	int64Col("bytes_analyzed", func(r *core.StepRecord) *int64 { return &r.BytesAnalyzed }),
	int64Col("bytes_moved", func(r *core.StepRecord) *int64 { return &r.BytesMoved }),
	intCol("staging_cores", false, func(r *core.StepRecord) *int { return &r.StagingCores }),
	intCol("staging_retries", true, func(r *core.StepRecord) *int { return &r.StagingRetries }),
	intCol("staging_reconnects", true, func(r *core.StepRecord) *int { return &r.StagingReconnects }),
	int64Col("peak_mem_bytes", func(r *core.StepRecord) *int64 { return &r.PeakMemBytes }),
	int64Col("min_mem_avail", func(r *core.StepRecord) *int64 { return &r.MinMemAvail }),
	intCol("triangles", true, func(r *core.StepRecord) *int { return &r.Triangles }),
	floatCol("sim_clock", false, func(r *core.StepRecord) *float64 { return &r.SimClock }),
	floatCol("staging_clock", false, func(r *core.StepRecord) *float64 { return &r.StagingClock }),
	intCol("finest_level", false, func(r *core.StepRecord) *int { return &r.FinestLevel }),
}

// WriteCSV emits a header row and one row per step record.
func WriteCSV(w io.Writer, steps []core.StepRecord) error {
	cw := csv.NewWriter(w)
	row := make([]string, len(columns))
	for i, c := range columns {
		row[i] = c.name
	}
	if err := cw.Write(row); err != nil {
		return err
	}
	for i := range steps {
		for j, c := range columns {
			switch v := c.get(&steps[i]).(type) {
			case float64:
				row[j] = strconv.FormatFloat(v, 'g', 10, 64)
			default:
				row[j] = fmt.Sprint(v)
			}
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteJSONL emits one JSON object per line per step record, keys in column
// order, omitEmpty columns dropped when zero.
func WriteJSONL(w io.Writer, steps []core.StepRecord) error {
	var line bytes.Buffer
	for i := range steps {
		line.Reset()
		for _, c := range columns {
			v := c.get(&steps[i])
			if c.omitEmpty && reflect.ValueOf(v).IsZero() {
				continue
			}
			val, err := json.Marshal(v)
			if err != nil {
				return err
			}
			sep := byte(',')
			if line.Len() == 0 {
				sep = '{'
			}
			fmt.Fprintf(&line, "%c%q:%s", sep, c.name, val)
		}
		line.WriteString("}\n")
		if _, err := w.Write(line.Bytes()); err != nil {
			return err
		}
	}
	return nil
}

// ReadJSONL parses records written by WriteJSONL (used by tests and
// downstream tools). A half-written, unterminated final line — the torn
// tail a killed journaled run leaves behind — is tolerated and dropped; a
// malformed terminated line fails the read. ReadCSV stays strict: CSV
// artifacts are written whole at run end, never appended across a crash.
func ReadJSONL(r io.Reader) ([]core.StepRecord, error) {
	objs, err := obs.ReadJSONL[map[string]json.RawMessage](r, "trace: record")
	if err != nil {
		return nil, err
	}
	var out []core.StepRecord
	for _, obj := range objs {
		var rec core.StepRecord
		for _, c := range columns {
			raw, present := obj[c.name]
			text := string(raw)
			if _, isString := c.get(&rec).(string); isString {
				// An absent string column reads as "", which placement rejects.
				text = ""
				if present {
					if err := json.Unmarshal(raw, &text); err != nil {
						return nil, fmt.Errorf("trace: record %d, %s: %w", len(out), c.name, err)
					}
				}
			} else if !present {
				continue
			}
			if err := c.set(&rec, text); err != nil {
				return nil, fmt.Errorf("trace: record %d, %s: %w", len(out), c.name, err)
			}
		}
		out = append(out, rec)
	}
	return out, nil
}

// ReadCSV parses records written by WriteCSV. Columns are matched by
// header name, so column order does not matter; every column must be
// present.
func ReadCSV(r io.Reader) ([]core.StepRecord, error) {
	cr := csv.NewReader(r)
	header, err := cr.Read()
	if err == io.EOF {
		return nil, fmt.Errorf("trace: empty CSV")
	}
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	col := make(map[string]int, len(header))
	for i, name := range header {
		col[name] = i
	}
	for _, c := range columns {
		if _, ok := col[c.name]; !ok {
			return nil, fmt.Errorf("trace: CSV missing column %q", c.name)
		}
	}

	var out []core.StepRecord
	for {
		row, err := cr.Read()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, fmt.Errorf("trace: %w", err)
		}
		var rec core.StepRecord
		for _, c := range columns {
			if err := c.set(&rec, row[col[c.name]]); err != nil {
				return nil, fmt.Errorf("trace: row %d, column %s: %w", len(out)+1, c.name, err)
			}
		}
		out = append(out, rec)
	}
}
