package report

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"testing"

	"intellitag/benchmark/prep"
	"intellitag/benchmark/wl"
)

var updateSpec = flag.Bool("update-spec", false, "rewrite ../spec.json from the tables")

// specFile is benchmark/spec.json: everything the issue that defined the
// benchmark wanted recorded beside the metric names, which the benchmark
// contract's BENCHMARK.json (six fixed keys) has no place for.
type specFile struct {
	Schema     string         `json:"schema"`
	Claim      *string        `json:"claim"` // the benchmark-defining change claims nothing
	CoreSplit  string         `json:"core_split"`
	World      specWorld      `json:"world"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []specWorkload `json:"workloads"`
	EndToEnd   []specMetric   `json:"end_to_end"`
	PerLayer   []specMetric   `json:"per_layer"`
}

type specWorld struct {
	ConfigDigest string `json:"config_digest"`
	Topics       int    `json:"topics"`
	TagsPerTopic int    `json:"tags_per_topic"`
	Tenants      int    `json:"tenants"`
	Sessions     int    `json:"sessions"`
	Retrieval    string `json:"retrieval"`
}

type specWorkload struct {
	Name         string  `json:"name"`
	Why          string  `json:"why"`
	PacedRate    float64 `json:"paced_rate_per_s"`
	PacedLimitUS float64 `json:"paced_limit_us"`
	Swap         bool    `json:"swaps_under_load"`
}

type specMetric struct {
	Name    string  `json:"name"`
	Unit    string  `json:"unit"`
	Better  string  `json:"better"`
	Bound   float64 `json:"bound,omitempty"`
	Gate    float64 `json:"gate,omitempty"`
	GateAbs bool    `json:"gate_is_absolute,omitempty"`
	Layer   string  `json:"layer,omitempty"`
	Moves   string  `json:"should_move,omitempty"`
	What    string  `json:"what,omitempty"`
}

func currentSpec(runSeconds int) specFile {
	cfg := prep.BenchConfig()
	s := specFile{
		Schema: "intellitag-bench-spec/1", CoreSplit: CoreSplit, RunSeconds: runSeconds,
		World: specWorld{
			ConfigDigest: cfg.Digest(), Topics: cfg.World.NumTopics, TagsPerTopic: cfg.World.TagsPerTopic,
			Tenants: cfg.World.NumTenants, Sessions: cfg.World.NumSessions,
			Retrieval: "serving.DefaultRetrievalConfig",
		},
	}
	for _, w := range wl.Specs {
		s.Workloads = append(s.Workloads, specWorkload{w.Name, w.Why, w.PacedRate, wl.LimitUS, w.Swap})
	}
	for _, m := range EndToEnd {
		s.EndToEnd = append(s.EndToEnd, specMetric{m.Name, m.Unit, m.Better, m.Bound, m.Gate, m.GateAbs, "", "", m.What})
	}
	for _, m := range PerLayer {
		s.PerLayer = append(s.PerLayer, specMetric{Name: m.Name, Unit: m.Unit, Better: m.Better, Layer: m.Layer, Moves: m.Moves, What: m.What})
	}
	return s
}

// TestSpecJSONMatchesTables keeps benchmark/spec.json — frozen paced rates
// and limit, core split, world digest, gates, which layer metric should move
// what, and "claim": null — identical to the code. Changing the world, a
// frozen constant or a metric fails here until the file says so too
// (go test ./report -update-spec).
func TestSpecJSONMatchesTables(t *testing.T) {
	braw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(braw, &b); err != nil {
		t.Fatal(err)
	}
	want, err := json.MarshalIndent(currentSpec(b.RunSeconds), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	if *updateSpec {
		if err := os.WriteFile("../spec.json", want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile("../spec.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("benchmark/spec.json is out of date with the tables; run go test ./report -update-spec\nwant:\n%s", want)
	}
	if !bytes.Contains(got, []byte(`"claim": null`)) {
		t.Error(`spec.json must say "claim": null`)
	}
}
