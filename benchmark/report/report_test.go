package report

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"intellitag/benchmark/wl"
)

// sampleSet builds a valid set in which every workload has every end-to-end
// metric; base scales the values (ratios come out as base/1000 times their
// place in the table, so base 100 puts them between 0 and 1).
func sampleSet(base float64, jitter []float64) *Set {
	s := &Set{Schema: SetSchema, Seconds: 20, Runs: len(jitter), Workloads: map[string]map[string]Summary{}}
	for _, spec := range wl.Specs {
		ms := map[string]Summary{}
		for i, m := range EndToEnd {
			vals := make([]float64, len(jitter))
			for j, f := range jitter {
				vals[j] = base * float64(i+1) * f
				if m.Unit == "ratio" {
					vals[j] /= 1000
				}
			}
			ms[m.Name] = Summarize(m.Unit, vals)
		}
		s.Workloads[spec.Name] = ms
	}
	return s
}

func TestSetRoundTripsThroughSchemaCheck(t *testing.T) {
	set := sampleSet(100, []float64{1, 1.01, 0.99})
	set.Workloads["session_mix"]["ann.search_us_p50"] = Summarize("us", []float64{12.5})
	path := filepath.Join(t.TempDir(), "set.json")
	if err := WriteJSON(path, set); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSet(path)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(set)
	b, _ := json.Marshal(back)
	if string(a) != string(b) {
		t.Fatalf("set changed in the round trip:\n%s\n%s", a, b)
	}
	if !strings.Contains(string(a), `"claim":null`) {
		t.Error(`a set that claims nothing must say "claim": null`)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name   string
		break_ func(*Set)
		want   string
	}{
		{"wrong schema", func(s *Set) { s.Schema = "intellitag-bench/0" }, "schema"},
		{"no workloads", func(s *Set) { s.Workloads = nil }, "no workloads"},
		{"missing end-to-end metric", func(s *Set) { delete(s.Workloads["memo_reads"], "qps") }, "lacks end-to-end metric qps"},
		{"unknown metric", func(s *Set) { s.Workloads["memo_reads"]["made_up"] = Summarize("us", []float64{1}) }, "unknown metric made_up"},
		{"wrong unit", func(s *Set) {
			m := s.Workloads["memo_reads"]["qps"]
			m.Unit = "us"
			s.Workloads["memo_reads"]["qps"] = m
		}, "unit"},
		{"no values", func(s *Set) { s.Workloads["memo_reads"]["qps"] = Summary{Unit: "1/s"} }, "no values"},
		{"summary not of its values", func(s *Set) {
			m := s.Workloads["memo_reads"]["qps"]
			m.Median *= 2
			s.Workloads["memo_reads"]["qps"] = m
		}, "does not match"},
	}
	for _, c := range cases {
		s := sampleSet(100, []float64{1, 1.01, 0.99})
		c.break_(s)
		if err := s.Validate(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want an error containing %q", c.name, err, c.want)
		}
	}
}

func TestNewLine(t *testing.T) {
	vals := map[string]float64{}
	for _, m := range EndToEnd {
		vals[m.Name] = 1.5
	}
	l, err := NewLine(EndToEnd, vals, 10, 0)
	if err != nil || !l.Correct || len(l.Metrics) != len(EndToEnd) {
		t.Fatalf("line %+v, err %v", l, err)
	}
	raw, _ := json.Marshal(l)
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil || len(keys) != 4 {
		t.Fatalf("the result line must have exactly correct, attempted, failed, metrics: %s", raw)
	}
	if l, _ := NewLine(EndToEnd, vals, 10, 1); l.Correct {
		t.Error("a run with a failed request is not correct")
	}
	delete(vals, "qps")
	if _, err := NewLine(EndToEnd, vals, 10, 0); err == nil {
		t.Error("a missing metric must be an error, not a silent gap")
	}
}

func TestCompareVerdicts(t *testing.T) {
	tight := []float64{1, 1.002, 0.998, 1.001, 0.999}
	a := sampleSet(100, tight)
	same := sampleSet(100.5, tight)
	for _, r := range Compare(a, same) {
		if r.Verdict != OK {
			t.Errorf("A/A %s/%s: %s (worse %.3f)", r.Workload, r.Metric.Name, r.Verdict, r.Worse)
		}
	}
	// 30% larger everywhere: worse for lower-is-better metrics, better for
	// higher-is-better ones.
	for _, r := range Compare(a, sampleSet(130, tight)) {
		want := Regressed
		if r.Metric.Better == "higher" {
			want = OK
		}
		if r.Verdict != want {
			t.Errorf("+30%% %s/%s: %s, want %s", r.Workload, r.Metric.Name, r.Verdict, want)
		}
	}
	// The two ratios are gated in their own unit: hit_at_5 may fall by 0.005,
	// whatever share of its median that is.
	for _, tc := range []struct {
		drop float64
		want string
	}{{0.003, OK}, {0.01, Regressed}} {
		b := sampleSet(100, tight)
		for _, spec := range wl.Specs {
			sum := b.Workloads[spec.Name]["hit_at_5"]
			vals := make([]float64, len(sum.Values))
			for i, v := range sum.Values {
				vals[i] = v - tc.drop
			}
			b.Workloads[spec.Name]["hit_at_5"] = Summarize(sum.Unit, vals)
		}
		for _, r := range Compare(a, b) {
			want := OK
			if r.Metric.Name == "hit_at_5" {
				want = tc.want
			}
			if r.Verdict != want {
				t.Errorf("hit_at_5 down %.3f: %s/%s is %s, want %s", tc.drop, r.Workload, r.Metric.Name, r.Verdict, want)
			}
		}
	}
	// A side whose own runs spread wider than the gate decides nothing.
	noisy := sampleSet(100, []float64{0.6, 1, 1.4, 0.7, 1.3})
	for _, r := range Compare(a, noisy) {
		if r.Verdict != Unresolved {
			t.Errorf("noisy %s/%s: %s, want unresolved", r.Workload, r.Metric.Name, r.Verdict)
		}
	}
	table, bad := FormatCompare(Compare(a, noisy))
	if bad != len(wl.Specs)*len(EndToEnd) || strings.Count(table, Unresolved) != bad {
		t.Errorf("FormatCompare counted %d bad rows:\n%s", bad, table)
	}
}

// benchmarkJSON mirrors the contract's BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkJSONMatchesTables keeps the repository's BENCHMARK.json and
// the tables in this package identical, and inside the contract's limits.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(raw))
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(raw, &top); err != nil {
		t.Fatal(err)
	}
	if len(top) != 6 {
		t.Errorf("BENCHMARK.json has %d keys, the contract fixes 6", len(top))
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "benchmark" {
		t.Errorf("paths %v, want [benchmark]", b.Paths)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d", b.RunSeconds)
	}
	if len(b.Workloads) != len(wl.Specs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in wl.Specs", len(b.Workloads), len(wl.Specs))
	}
	for i, spec := range wl.Specs {
		if b.Workloads[i].Name != spec.Name || b.Workloads[i].Why != spec.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, wl.Specs has %q / %q",
				i, b.Workloads[i].Name, b.Workloads[i].Why, spec.Name, spec.Why)
		}
		if len(spec.Why) > 200 || strings.ContainsRune(spec.Why, '\n') {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", spec.Name, len(spec.Why))
		}
	}
	if len(b.EndToEnd) != len(EndToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the table", len(b.EndToEnd), len(EndToEnd))
	}
	sawSetup := false
	for i, m := range EndToEnd {
		j := b.EndToEnd[i]
		if j.Name != m.Name || j.Unit != m.Unit || j.Better != m.Better || j.Bound != m.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, table %+v", i, j, m)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Gate <= 0 || (!m.GateAbs && m.Gate > m.Bound) {
			t.Errorf("%s: gate %v must be positive and no wider than the bound %v", m.Name, m.Gate, m.Bound)
		}
		if m.Name == "setup_s" {
			sawSetup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !sawSetup {
		t.Error(`the contract requires an end-to-end "setup_s" in s, lower is better`)
	}
	if len(b.PerLayer) != len(PerLayer) || len(PerLayer) > 128 {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the table (at most 128)", len(b.PerLayer), len(PerLayer))
	}
	seen := map[string]bool{}
	for i, m := range PerLayer {
		j := b.PerLayer[i]
		if j.Name != m.Name || j.Unit != m.Unit || j.Better != m.Better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, table %+v", i, j, m)
		}
		// svc_p99_us keeps the name the issue gave it as an end-to-end metric.
		if (m.Name != "svc_p99_us" && !strings.HasPrefix(m.Name, m.Layer+".")) || m.Moves == "" {
			t.Errorf("%s: a layer metric is named after its layer and says what it should move", m.Name)
		}
	}
	for _, m := range append(append([]Metric(nil), EndToEnd...), PerLayer...) {
		if seen[m.Name] || len(m.Name) > 64 || len(m.Unit) > 16 {
			t.Errorf("metric %q: duplicate, or name or unit too long", m.Name)
		}
		seen[m.Name] = true
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better is %q", m.Name, m.Better)
		}
	}
}
