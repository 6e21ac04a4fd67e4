package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// JSONLSink writes one JSON object per line through a buffered writer: the
// log sink under both the event stream (T = Event) and the span log
// (T = span.Span). It is safe for concurrent use and its first error sticks.
type JSONLSink[T any] struct {
	mu  sync.Mutex
	bw  *bufio.Writer
	enc *json.Encoder
	c   io.Closer // closed by Close when the underlying writer is a Closer
	err error
}

// NewJSONLSinkOf wraps w in a sink of T records. If w is an io.Closer (e.g.
// *os.File) it is closed by the sink's Close after the buffer is flushed.
func NewJSONLSinkOf[T any](w io.Writer) *JSONLSink[T] {
	bw := bufio.NewWriter(w)
	s := &JSONLSink[T]{bw: bw, enc: json.NewEncoder(bw)}
	if c, ok := w.(io.Closer); ok {
		s.c = c
	}
	return s
}

// NewJSONLSink is the event stream's JSONL sink.
func NewJSONLSink(w io.Writer) *JSONLSink[Event] { return NewJSONLSinkOf[Event](w) }

// Emit encodes v as one JSONL line. The first encoding error sticks and is
// reported by Flush and Close.
func (s *JSONLSink[T]) Emit(v T) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	s.err = s.enc.Encode(&v)
}

// Flush pushes buffered lines down to the underlying writer without
// closing it — the step-barrier hook of journaled runs, so a driver kill
// after the barrier never strands lines in the buffer.
func (s *JSONLSink[T]) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ferr := s.bw.Flush(); s.err == nil {
		s.err = ferr
	}
	return s.err
}

// Close flushes the buffer (and closes the underlying writer when it is a
// Closer), returning the first error seen.
func (s *JSONLSink[T]) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ferr := s.bw.Flush(); s.err == nil {
		s.err = ferr
	}
	if s.c != nil {
		if cerr := s.c.Close(); s.err == nil {
			s.err = cerr
		}
		s.c = nil
	}
	return s.err
}

// ReadJSONL parses a JSONL log of T records, one per line; what ("obs:
// event", "span: span") prefixes its errors. A killed writer can leave a
// half-written, unterminated final line; that torn tail is tolerated
// (dropped). A malformed but newline-terminated line is corruption and
// fails the read.
func ReadJSONL[T any](r io.Reader, what string) ([]T, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("%s log: %w", what, err)
	}
	lines := bytes.Split(data, []byte("\n"))
	var out []T
	for i, line := range lines {
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			continue
		}
		var v T
		if err := json.Unmarshal(line, &v); err != nil {
			if i == len(lines)-1 {
				break // unterminated torn tail from a killed writer
			}
			return nil, fmt.Errorf("%s %d: %w", what, len(out)+1, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// ReadEvents parses a JSONL event stream written by NewJSONLSink.
func ReadEvents(r io.Reader) ([]Event, error) { return ReadJSONL[Event](r, "obs: event") }
