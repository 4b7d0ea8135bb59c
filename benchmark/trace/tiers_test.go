package trace

import (
	"strings"
	"testing"
	"time"

	"intellitag/benchmark/prep"
	"intellitag/benchmark/report"
	"intellitag/benchmark/wl"
)

// TestTracedRun drives every traced workload for a moment on the untrained
// bench world. Run itself fails when the leaf calls' inputs differ from what
// the engine ranked (checkMirror), so passing pins the mirror of the engine's
// retrieval logic on both the ANN and the exhaustive path.
func TestTracedRun(t *testing.T) {
	p, err := prep.Prepare(t.TempDir(), prep.UntrainedConfig(), t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Record.SharedEmbeddings {
		t.Error("v1 and v2 do not share an embedding digest")
	}
	world := wl.NewWorld(p.World)
	for _, spec := range wl.Specs {
		res, err := Run(Options{
			Prepared: p, World: world, Spec: spec, Seed: 1,
			Duration: 400 * time.Millisecond, Version: p.Record.V2,
		})
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if res.Failed != 0 || res.Requests == 0 {
			t.Fatalf("%s: %d requests, %d failed: %v", spec.Name, res.Requests, res.Failed, res.Errs)
		}
		for _, m := range report.PerLayer {
			// The server-runtime, generator and overhead metrics come from
			// the external run.
			if m.Layer == "runtime" || m.Layer == "load" || m.Name == "trace.overhead_frac" {
				continue
			}
			if _, ok := res.Metrics[m.Name]; !ok {
				t.Errorf("%s: traced run did not measure %s", spec.Name, m.Name)
			}
		}
		for name := range res.Metrics {
			if _, ok := report.Find(name); !ok {
				t.Errorf("%s: traced run measured %s, which no table names", spec.Name, name)
			}
		}
		m := res.Metrics
		var paths float64
		for name, v := range m {
			if strings.HasPrefix(name, "serving.path_") || name == "serving.memo_hit_frac" {
				paths += v
			}
		}
		if paths < 0.999 || paths > 1.001 {
			t.Errorf("%s: path and memo shares sum to %v, want 1", spec.Name, paths)
		}
		for _, msg := range spec.Intent.Violations(m) {
			t.Errorf("%s: %s", spec.Name, msg)
		}
		if spec.Name == "big_tenant_clicks" && (m["ann.recall_at_64"] < 0.5 || m["ann.survivor_frac"] <= 0) {
			t.Errorf("big_tenant_clicks: recall %v, survivors %v", m["ann.recall_at_64"], m["ann.survivor_frac"])
		}
	}
}
