package harness

import (
	"os/exec"
	"path/filepath"
	"testing"

	"intellitag/benchmark/prep"
	"intellitag/benchmark/report"
	"intellitag/benchmark/wl"
)

// TestExternalRun builds the benchmark server, starts it as a process of its
// own on the untrained bench world and walks a short run of two workloads:
// every end-to-end metric and every outside-only layer metric comes out, no
// request fails, the swapper swaps, and nothing is left running.
func TestExternalRun(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the server binary")
	}
	bin := filepath.Join(t.TempDir(), "benchserver")
	if out, err := exec.Command("go", "build", "-o", bin, "intellitag/benchmark/cmd/benchserver").CombinedOutput(); err != nil {
		t.Fatalf("go build benchserver: %v\n%s", err, out)
	}
	p, err := prep.Prepare(t.TempDir(), prep.UntrainedConfig(), t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	world := wl.NewWorld(p.World)
	layout := NewLayout()
	for _, name := range []string{"big_tenant_clicks", "swap_under_load"} {
		spec, _ := wl.Find(name)
		res, err := Run(Options{
			Layout: layout, ServerBin: bin, Prepared: p, World: world, WorldName: "untrained",
			Spec: spec, Seed: 1, Seconds: 2, SetupReps: 2,
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Failed != 0 || res.Attempted == 0 {
			t.Fatalf("%s: %d attempted, %d failed: %v", name, res.Attempted, res.Failed, res.Errors)
		}
		if len(res.SetupS) != 2 {
			t.Errorf("%s: %d server starts, want 2", name, len(res.SetupS))
		}
		if _, err := report.NewLine(report.EndToEnd, res.Values, res.Attempted, res.Failed); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		for _, m := range report.PerLayer {
			if m.Layer != "runtime" && m.Layer != "load" {
				continue
			}
			if _, ok := res.Values[m.Name]; !ok {
				t.Errorf("%s: external run did not measure %s", name, m.Name)
			}
		}
		for _, m := range report.EndToEnd {
			if spec.Swap && m.Name == "paced_ok_frac" {
				continue // at 2 s the swaps run back to back and every paced request meets one
			}
			if res.Values[m.Name] <= 0 {
				t.Errorf("%s: %s = %v; end-to-end metrics are never 0", name, m.Name, res.Values[m.Name])
			}
		}
		wantPhases := []string{"warmup", "service", "capacity", "paced"}
		for i, ph := range res.Phases {
			if ph.Name != wantPhases[i] || ph.Sent == 0 || ph.OK != ph.Sent {
				t.Errorf("%s: phase %d is %+v", name, i, ph)
			}
		}
		if spec.Swap && len(res.SwapS) < 2 {
			t.Errorf("%s: %d swaps in the run", name, len(res.SwapS))
		}
		if !spec.Swap && len(res.SwapS) != warmSwaps {
			t.Errorf("%s: %d swaps, want the warm-up's %d", name, len(res.SwapS), warmSwaps)
		}
	}
}
