// Package trace is the benchmark's outside-in tracing: spans recorded by
// benchmark code around calls into each layer's public API (the program
// itself carries no benchmark spans yet), self-time arithmetic over them,
// and the traced run that produces the per-layer metrics.
package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
)

// Span is one timed call into a layer. Spans of one request share Req;
// Parent is the ID of the span that caused this one, -1 for a request's
// root. Start and End are nanoseconds since the trace began.
type Span struct {
	ID     int    `json:"id"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
}

// Dur is the span's duration in nanoseconds.
func (s Span) Dur() int64 { return s.End - s.Start }

// Recorder keeps spans in memory until the run ends.
type Recorder struct {
	Spans []Span
}

// Add records a span and returns its ID.
func (r *Recorder) Add(req int, name string, start, end int64, parent int) int {
	id := len(r.Spans)
	r.Spans = append(r.Spans, Span{ID: id, Req: req, Name: name, Start: start, End: end, Parent: parent})
	return id
}

// SelfTimes returns, per span ID, the span's duration minus its children's.
//
// The traced run measures a request's tiers back to back on identical
// inputs rather than nested inside one call, so a child's interval lies
// beside its parent's on the clock, not within it; the parent link says
// which time contains which, and self time is therefore taken on durations.
// A child measured slower than its parent (timer noise) makes the parent's
// self time negative; it is kept as measured so that self times always sum
// to the root's duration.
func SelfTimes(spans []Span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.Dur()
		if s.Parent >= 0 {
			self[s.Parent] -= s.Dur()
		}
	}
	return self
}

// WriteJSONL writes one span per line.
func (r *Recorder) WriteJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	w := bufio.NewWriterSize(f, 1<<20)
	enc := json.NewEncoder(w)
	for i := range r.Spans {
		if err := enc.Encode(&r.Spans[i]); err != nil {
			_ = f.Close() // the encode error is the one to report
			return fmt.Errorf("trace: write %s: %w", path, err)
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close() // as above
		return fmt.Errorf("trace: write %s: %w", path, err)
	}
	return f.Close()
}
