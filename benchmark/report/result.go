package report

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"

	"intellitag/benchmark/stat"
)

// Value is one reported measurement.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Line is the last line a workload run prints: the whole result the
// benchmark contract asks for.
type Line struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]Value `json:"metrics"`
}

// NewLine builds the line for the given table from measured values; a metric
// of the table that was not measured is an error.
func NewLine(table []Metric, values map[string]float64, attempted, failed int) (Line, error) {
	l := Line{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]Value{}}
	for _, m := range table {
		v, ok := values[m.Name]
		if !ok {
			return l, fmt.Errorf("report: metric %s was not measured", m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return l, fmt.Errorf("report: metric %s is %v", m.Name, v)
		}
		l.Metrics[m.Name] = Value{Value: v, Unit: m.Unit}
	}
	return l, nil
}

// Setup records the fixed set-up a result was measured under.
type Setup struct {
	CoreSplit   string  `json:"core_split"`
	NumCPU      int     `json:"num_cpu"`
	ServerProcs int     `json:"server_gomaxprocs"`
	GenProcs    int     `json:"generator_gomaxprocs"`
	Conns       int     `json:"connections"`
	WorldDigest string  `json:"world_digest"`
	Tags        int     `json:"tags"`
	Tenants     int     `json:"tenants"`
	V1          string  `json:"v1"`
	V2          string  `json:"v2"`
	TrainS      float64 `json:"prepare_train_s"`
	Retrieval   string  `json:"retrieval"`
}

// Phase is one phase's counts and latencies.
type Phase struct {
	Name    string  `json:"name"`
	Loop    string  `json:"loop"` // "closed" or "paced"
	Conns   int     `json:"connections"`
	Seconds float64 `json:"seconds"`
	Slices  int     `json:"slices,omitempty"`   // closed phases: p50, p95 and qps are the best of this many slices
	QPS     float64 `json:"qps,omitempty"`      // closed phases: successes per second, highest slice
	RateQPS float64 `json:"rate_qps,omitempty"` // paced: offered rate
	Sent    int     `json:"sent"`
	OK      int     `json:"succeeded"`
	Failed  int     `json:"failed"`
	P50US   float64 `json:"p50_us"`
	P95US   float64 `json:"p95_us"`
	P99US   float64 `json:"p99_us"`
	MaxUS   float64 `json:"max_us"`
	Samples int     `json:"latency_samples"`
	// Closed phases: each slice's own values, of which P50US and P95US are
	// the lowest and QPS the highest (P99US and MaxUS are over the pooled
	// samples).
	SliceP50US []float64 `json:"slice_p50_us,omitempty"`
	SliceP95US []float64 `json:"slice_p95_us,omitempty"`
	SliceQPS   []float64 `json:"slice_qps,omitempty"`
}

// Run is the full record of one workload run, written beside the trace.
type Run struct {
	Workload string    `json:"workload"`
	Seed     int64     `json:"seed"`
	Seconds  float64   `json:"seconds"`
	Trace    bool      `json:"trace"`
	Setup    Setup     `json:"setup"`
	Phases   []Phase   `json:"phases"`
	SetupS   []float64 `json:"setup_s_each"`
	SwapS    []float64 `json:"swap_s_each"`
	Warnings []string  `json:"warnings,omitempty"`
	Errors   []string  `json:"errors,omitempty"`
	// Violations are the ways the run was not the workload it is described
	// as (see cmd/bench); any makes the run incorrect.
	Violations []string `json:"violations,omitempty"`
	Line
}

// Summary is one metric over a set's repeated runs.
type Summary struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
}

// Summarize computes a metric's summary from its runs' values.
func Summarize(unit string, values []float64) Summary {
	s := stat.Sorted(values)
	return Summary{Unit: unit, Values: values, Median: stat.Median(values), Min: s[0], Max: s[len(s)-1]}
}

// Spread is the width of the values relative to their median: the distance
// between the quartiles when there are at least four, else the range.
func (s Summary) Spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs(s.width() / s.Median)
}

// SetSchema identifies the result-set format.
const SetSchema = "intellitag-bench/1"

// Set is a set of repeated runs: every workload's end-to-end metrics (and,
// when the set includes traced runs, per-layer metrics) summarised over the
// runs.
type Set struct {
	Schema    string                        `json:"schema"`
	Setup     Setup                         `json:"setup"`
	Seconds   float64                       `json:"run_seconds"`
	Runs      int                           `json:"runs_per_workload"`
	Workloads map[string]map[string]Summary `json:"workloads"` // workload -> metric -> summary
	Claim     *string                       `json:"claim"`     // a benchmark-defining set claims nothing
}

// Validate checks a set against the schema: known workload names are not
// required (the table may grow), but every workload must carry every
// end-to-end metric, every metric must be a known one with its unit, and
// every summary must be consistent with its values.
func (s *Set) Validate() error {
	if s.Schema != SetSchema {
		return fmt.Errorf("report: schema %q, want %q", s.Schema, SetSchema)
	}
	if len(s.Workloads) == 0 {
		return fmt.Errorf("report: result set has no workloads")
	}
	for _, wl := range sortedKeys(s.Workloads) {
		ms := s.Workloads[wl]
		for _, m := range EndToEnd {
			if _, ok := ms[m.Name]; !ok {
				return fmt.Errorf("report: workload %s lacks end-to-end metric %s", wl, m.Name)
			}
		}
		for _, name := range sortedKeys(ms) {
			sum := ms[name]
			m, ok := Find(name)
			if !ok {
				return fmt.Errorf("report: workload %s: unknown metric %s", wl, name)
			}
			if sum.Unit != m.Unit {
				return fmt.Errorf("report: %s/%s: unit %q, want %q", wl, name, sum.Unit, m.Unit)
			}
			if len(sum.Values) == 0 {
				return fmt.Errorf("report: %s/%s: no values", wl, name)
			}
			want := Summarize(sum.Unit, sum.Values)
			if sum.Median != want.Median || sum.Min != want.Min || sum.Max != want.Max {
				return fmt.Errorf("report: %s/%s: summary does not match its values", wl, name)
			}
		}
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// WriteJSON writes v indented to path.
func WriteJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("report: %w", err)
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// ReadSet reads and validates a result set.
func ReadSet(path string) (*Set, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("report: %w", err)
	}
	var s Set
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("report: %s: %w", path, err)
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// Verdicts of a comparison row.
const (
	OK         = "ok"
	Regressed  = "regressed"
	Unresolved = "unresolved"
)

// Row compares one end-to-end metric on one workload between two sets. Worse,
// Spread and Gate are in one scale: shares of A's median, or for a metric
// whose gate is absolute, the metric's unit.
type Row struct {
	Workload string
	Metric   Metric
	A, B     Summary
	Worse    float64 // how much worse B's median is than A's; negative when B is better
	Spread   float64 // the wider of the two sets' own run-to-run spreads
	Verdict  string
}

// width is the distance between the quartiles of a summary's values when
// there are at least four, else their range.
func (s Summary) width() float64 {
	if len(s.Values) < 2 {
		return 0
	}
	if len(s.Values) >= 4 {
		q1, q3 := stat.Quartiles(s.Values)
		return q3 - q1
	}
	return s.Max - s.Min
}

// Compare judges set b against set a on every workload both have, by the
// rule a performance change is held to: no end-to-end median worse than the
// other's by more than the metric's gate, and where either side's own
// run-to-run spread is wider than the gate, the pair is unresolved rather
// than unchanged.
func Compare(a, b *Set) []Row {
	var rows []Row
	for _, wl := range sortedKeys(a.Workloads) {
		bm, ok := b.Workloads[wl]
		if !ok {
			continue
		}
		for _, m := range EndToEnd {
			sa, sb := a.Workloads[wl][m.Name], bm[m.Name]
			r := Row{Workload: wl, Metric: m, A: sa, B: sb, Verdict: OK}
			r.Worse = sb.Median - sa.Median
			if m.Better == "higher" {
				r.Worse = -r.Worse
			}
			r.Spread = math.Max(sa.width(), sb.width())
			if !m.GateAbs && sa.Median != 0 {
				r.Worse /= math.Abs(sa.Median)
				r.Spread = math.Max(sa.Spread(), sb.Spread())
			}
			switch {
			case r.Spread > m.Gate:
				r.Verdict = Unresolved
			case r.Worse > m.Gate:
				r.Verdict = Regressed
			}
			rows = append(rows, r)
		}
	}
	return rows
}

// FormatCompare renders the comparison table and returns how many rows are
// not ok.
func FormatCompare(rows []Row) (string, int) {
	var w strings.Builder
	bad := 0
	fmt.Fprintf(&w, "%-18s %-14s %14s %14s %10s %10s %10s  %s\n",
		"workload", "metric", "A median", "B median", "B worse", "spread", "gate", "verdict")
	cell := func(m Metric, v float64, sign bool) string {
		switch {
		case m.GateAbs && sign:
			return fmt.Sprintf("%+.4f", v)
		case m.GateAbs:
			return fmt.Sprintf("%.4f", v)
		case sign:
			return fmt.Sprintf("%+.2f%%", 100*v)
		}
		return fmt.Sprintf("%.2f%%", 100*v)
	}
	for _, r := range rows {
		if r.Verdict != OK {
			bad++
		}
		fmt.Fprintf(&w, "%-18s %-14s %14.6g %14.6g %10s %10s %10s  %s\n",
			r.Workload, r.Metric.Name, r.A.Median, r.B.Median,
			cell(r.Metric, r.Worse, true), cell(r.Metric, r.Spread, false), cell(r.Metric, r.Metric.Gate, false), r.Verdict)
	}
	return w.String(), bad
}
