// Command bench is the repo benchmark's driver. It prepares the fixed bench
// world, starts cmd/benchserver as a separate process, drives one of four
// serving workloads at it over loopback HTTP from a single generator
// process, validates every answer and prints every metric by name.
//
// One workload run, as the benchmark contract calls it:
//
//	bench --workload session_mix --seed 1 --seconds 20 --trace 0
//
// prints the end-to-end metrics; --trace 1 runs the traced tiers as well and
// prints the per-layer metrics. The last line of standard output is one JSON
// object {correct, attempted, failed, metrics}.
//
// A set of repeated runs of every workload, and the comparison of two sets:
//
//	bench --suite --runs 3 --set-out A.json
//	bench --compare A.json B.json
//
// See benchmark/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"intellitag/benchmark/harness"
	"intellitag/benchmark/prep"
	"intellitag/benchmark/report"
	"intellitag/benchmark/trace"
	"intellitag/benchmark/wl"
)

// In a traced invocation the external run gets this share of --seconds (it
// supplies the server-runtime and generator metrics and the untraced
// svc_p50_us the tracing overhead is taken against); the traced tiers get
// the rest.
const traceExternalShare = 0.4

// setupReps is how many times a run starts the server; setup_s is the
// median.
const setupReps = 3

type config struct {
	layout      harness.Layout
	out, server string
	worldName   string
	seconds     float64
	prepared    *prep.Prepared
	world       *wl.World
}

func main() {
	log.SetFlags(0)
	// A load generator's garbage is small and short-lived; collecting it less
	// often keeps its own pauses out of the latencies it measures.
	debug.SetGCPercent(400)
	workload := flag.String("workload", "", "run this one workload and print the contract's result line")
	seed := flag.Int64("seed", 1, "workload seed: the same seed generates the same requests")
	seconds := flag.Float64("seconds", 20, "measured seconds of one workload run")
	traced := flag.Int("trace", 0, "1: also run the traced tiers and report the per-layer metrics instead")
	suite := flag.Bool("suite", false, "run every workload -runs times, plus one traced run each, and write a result set")
	runs := flag.Int("runs", 3, "with -suite: runs per workload")
	short := flag.Bool("short", false, "with -suite: the small world, 1 run of 3 s per workload — a smoke test, not for claims")
	setOut := flag.String("set-out", "", "with -suite: where to write the result set (default <out>/set.json)")
	compare := flag.Bool("compare", false, "compare two result sets: bench -compare A.json B.json")
	out := flag.String("out", filepath.Join(os.TempDir(), "intellitag-bench"), "work directory: prepared world, results, trace.jsonl")
	flag.Parse()

	if *compare {
		os.Exit(runCompare(flag.Args()))
	}
	world := "bench"
	if *short {
		world = "small"
	}
	cfg := &config{layout: harness.NewLayout(), out: *out, worldName: world, seconds: *seconds}
	if err := cfg.open(); err != nil {
		log.Fatalf("bench: %v", err)
	}
	switch {
	case *suite:
		if *short {
			*runs, cfg.seconds = 1, 3
		}
		if *setOut == "" {
			*setOut = filepath.Join(cfg.out, "set.json")
		}
		if err := cfg.suite(*runs, *seed, *setOut); err != nil {
			log.Fatalf("bench: %v", err)
		}
	case *workload != "":
		spec, ok := wl.Find(*workload)
		if !ok {
			log.Fatalf("bench: unknown workload %q", *workload)
		}
		run, err := cfg.one(spec, *seed, *traced == 1)
		if err != nil {
			log.Fatalf("bench: %v", err)
		}
		printRun(run)
		line, err := json.Marshal(run.Line)
		if err != nil {
			log.Fatalf("bench: %v", err)
		}
		fmt.Println(string(line))
		if !run.Correct {
			os.Exit(1)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// open prepares (or reopens) the world and finds the server binary.
func (c *config) open() error {
	if err := os.MkdirAll(c.out, 0o755); err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	c.server = filepath.Join(filepath.Dir(self), "benchserver")
	if _, err := os.Stat(c.server); err != nil {
		return fmt.Errorf("benchserver binary: %w (benchmark/run.sh builds it beside this one)", err)
	}
	pc, err := prep.Named(c.worldName)
	if err != nil {
		return err
	}
	p, err := prep.Prepare(c.out, pc, log.Printf)
	if err != nil {
		return err
	}
	c.prepared = p
	c.world = wl.NewWorld(p.World)
	return nil
}

// one runs a workload once: the external run, and with traced also the
// in-process tiers.
func (c *config) one(spec wl.Spec, seed int64, traced bool) (*report.Run, error) {
	// The generator's fixed share of the machine.
	runtime.GOMAXPROCS(1)
	ext := harness.Options{
		Layout: c.layout, ServerBin: c.server, Prepared: c.prepared, World: c.world, WorldName: c.worldName,
		Spec: spec, Seed: seed, Seconds: c.seconds, SetupReps: setupReps,
	}
	if traced {
		ext.Seconds, ext.SetupReps = c.seconds*traceExternalShare, 1
	}
	res, err := harness.Run(ext)
	if err != nil {
		return nil, err
	}
	run := &report.Run{
		Workload: spec.Name, Seed: seed, Seconds: c.seconds, Trace: traced,
		Setup: res.Setup, Phases: res.Phases, SetupS: res.SetupS, SwapS: res.SwapS,
		Warnings: res.Warnings, Errors: res.Errors,
	}
	values, attempted, failed := res.Values, res.Attempted, res.Failed
	table := report.EndToEnd
	if traced {
		table = report.PerLayer
		// The tiers run on one goroutine, but tier A's server side needs a
		// core of its own as the real server has.
		runtime.GOMAXPROCS(min(2, c.layout.NumCPU))
		tr, err := trace.Run(trace.Options{
			Prepared: c.prepared, World: c.world, Spec: spec, Seed: seed,
			Duration: time.Duration((1 - traceExternalShare) * c.seconds * float64(time.Second)),
			Version:  harness.ActiveVersion(c.prepared.Record),
		})
		if err != nil {
			return nil, err
		}
		for name, v := range tr.Metrics {
			values[name] = v
		}
		values["trace.overhead_frac"] = tr.TierAP50/values["svc_p50_us"] - 1
		attempted += tr.Requests
		failed += tr.Failed
		run.Errors = append(run.Errors, tr.Errs...)
		if err := tr.Rec.WriteJSONL(filepath.Join(c.out, "trace.jsonl")); err != nil {
			return nil, err
		}
	}
	run.Line, err = report.NewLine(table, values, attempted, failed)
	if err != nil {
		return nil, err
	}
	run.Violations = intentViolations(spec, values, traced)
	run.Correct = run.Correct && len(run.Violations) == 0
	name := fmt.Sprintf("%s-seed%d-trace%d.json", spec.Name, seed, b2i(traced))
	dir := filepath.Join(c.out, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return run, report.WriteJSON(filepath.Join(dir, name), run)
}

// intentViolations checks that the run was the workload its description
// promises. The traced run sees which path every panel took and whether the
// layers' self times account for the round trip; the untraced run of
// swap_under_load counts its swaps. A violation makes the run incorrect.
func intentViolations(spec wl.Spec, v map[string]float64, traced bool) []string {
	var out []string
	bad := func(format string, args ...any) { out = append(out, fmt.Sprintf(format, args...)) }
	if !traced {
		if spec.Swap && v["load.swaps"] < harness.MinSwaps {
			bad("%s completed %.0f swaps, the workload is defined by at least %d", spec.Name, v["load.swaps"], harness.MinSwaps)
		}
		return out
	}
	for _, msg := range spec.Intent.Violations(v) {
		bad("%s: %s", spec.Name, msg)
	}
	if f := v["trace.self_sum_frac"]; f < 1-trace.SelfSumTolerance || f > 1+trace.SelfSumTolerance {
		bad("%s: the layers' self times sum to %.3f of the tier-A round trip, outside 1 +- %g", spec.Name, f, trace.SelfSumTolerance)
	}
	return out
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// printRun prints the run for a reader: set-up, phases, then every metric by
// name with its unit.
func printRun(r *report.Run) {
	s := r.Setup
	fmt.Printf("workload %s  seed %d  seconds %g  trace %v\n", r.Workload, r.Seed, r.Seconds, r.Trace)
	fmt.Printf("setup: %d cpus; server GOMAXPROCS %d, generator GOMAXPROCS %d, %d connections; world %s (%d tags, %d tenants); %s\n",
		s.NumCPU, s.ServerProcs, s.GenProcs, s.Conns, s.WorldDigest, s.Tags, s.Tenants, s.Retrieval)
	fmt.Printf("server starts (s): %.4f   swaps (s): %.4f\n", r.SetupS, r.SwapS)
	fmt.Printf("%-9s %-6s %5s %8s %8s %8s %7s %10s %10s %10s %10s\n",
		"phase", "loop", "conns", "seconds", "sent", "ok", "failed", "p50_us", "p95_us", "p99_us", "max_us")
	for _, ph := range r.Phases {
		fmt.Printf("%-9s %-6s %5d %8.2f %8d %8d %7d %10.1f %10.1f %10.1f %10.1f\n",
			ph.Name, ph.Loop, ph.Conns, ph.Seconds, ph.Sent, ph.OK, ph.Failed, ph.P50US, ph.P95US, ph.P99US, ph.MaxUS)
	}
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := r.Metrics[name]
		fmt.Printf("  %-32s %14.6g %s\n", name, v.Value, v.Unit)
	}
	// The two metrics the benchmark contract keeps out of the result line:
	// a failure share is 0 on every good run, and p99 has no bound.
	fmt.Printf("  %-32s %14.6g %s\n", "fail_frac", float64(r.Failed)/float64(max(r.Attempted, 1)), "ratio")
	if !r.Trace {
		for _, ph := range r.Phases {
			if ph.Name == "service" {
				fmt.Printf("  %-32s %14.6g %s (%d samples)\n", "svc_p99_us", ph.P99US, "us", ph.Samples)
			}
		}
	}
	for _, w := range r.Warnings {
		fmt.Printf("warning: %s\n", w)
	}
	for _, v := range r.Violations {
		fmt.Printf("violation: %s\n", v)
	}
	for _, e := range r.Errors {
		fmt.Printf("error: %s\n", e)
	}
}

// suite runs every workload runs times untraced and once traced, and writes
// the summarised set.
func (c *config) suite(runs int, seed int64, path string) error {
	set := &report.Set{Schema: report.SetSchema, Seconds: c.seconds, Runs: runs,
		Workloads: map[string]map[string]report.Summary{}}
	bad := 0
	for _, spec := range wl.Specs {
		if _, err := wl.NewStream(spec, c.world, seed, 0); err != nil {
			fmt.Printf("skipping %s: %v\n\n", spec.Name, err)
			continue
		}
		values := map[string][]float64{}
		units := map[string]string{}
		for i := 0; i <= runs; i++ {
			traced := i == runs
			run, err := c.one(spec, seed+int64(i), traced)
			if err != nil {
				return fmt.Errorf("%s run %d: %w", spec.Name, i, err)
			}
			printRun(run)
			fmt.Println()
			if !run.Correct {
				bad++
			}
			set.Setup = run.Setup
			for name, v := range run.Metrics {
				values[name] = append(values[name], v.Value)
				units[name] = v.Unit
			}
		}
		sums := map[string]report.Summary{}
		for name, vs := range values {
			sums[name] = report.Summarize(units[name], vs)
		}
		set.Workloads[spec.Name] = sums
	}
	printSet(set)
	if err := set.Validate(); err != nil {
		return err
	}
	if err := report.WriteJSON(path, set); err != nil {
		return err
	}
	fmt.Printf("result set written to %s\n", path)
	if bad > 0 {
		return fmt.Errorf("%d runs had failed requests", bad)
	}
	return nil
}

func printSet(set *report.Set) {
	fmt.Printf("%-18s %-14s %14s %14s %14s %8s %s\n", "workload", "metric", "median", "min", "max", "spread", "unit")
	for _, spec := range wl.Specs {
		if _, ok := set.Workloads[spec.Name]; !ok {
			continue
		}
		for _, m := range report.EndToEnd {
			s := set.Workloads[spec.Name][m.Name]
			fmt.Printf("%-18s %-14s %14.6g %14.6g %14.6g %7.2f%% %s\n",
				spec.Name, m.Name, s.Median, s.Min, s.Max, 100*s.Spread(), s.Unit)
		}
	}
}

func runCompare(args []string) int {
	if len(args) != 2 {
		log.Print("bench: -compare takes two result-set files")
		return 2
	}
	a, err := report.ReadSet(args[0])
	if err != nil {
		log.Print(err)
		return 2
	}
	b, err := report.ReadSet(args[1])
	if err != nil {
		log.Print(err)
		return 2
	}
	table, bad := report.FormatCompare(report.Compare(a, b))
	fmt.Print(table)
	if bad > 0 {
		fmt.Printf("%d of the pairs are regressed or unresolved\n", bad)
		return 1
	}
	return 0
}
