// Package report names the benchmark's metrics, and reads, checks, summarises
// and compares its results. The tables here are the single definition of the
// metric set: BENCHMARK.json at the repository root repeats their names,
// units, directions and bounds, and a test keeps the two identical.
package report

// CoreSplit is the rule that divides the machine between the two processes;
// harness.NewLayout applies it and every result records it.
const CoreSplit = "n = CPUs the driver may use: benchserver GOMAXPROCS max(1, n-1), generator GOMAXPROCS 1, capacity-phase connections min(max(n, 2), 8); nothing is pinned"

// Metric is one named measurement.
//
// An end-to-end metric carries two thresholds. Bound is BENCHMARK.json's: the
// share of the parent's median by which ten unpaired runs of a later change
// may come out worse before the change is rejected. It has to hold the
// ten-seed spread of a shared two-CPU sandbox three times over, and on most
// metrics that leaves it at the contract's maximum. Gate is the resolution a
// claim about the metric needs — the bound the issue that defined the
// benchmark asked for — and is what -compare judges two result sets by:
// where either set's own spread is wider than the gate the pair is
// unresolved, and the claim needs more runs or a quieter machine, not a
// wider gate.
type Metric struct {
	Name    string
	Unit    string
	Better  string  // "lower" or "higher"
	Bound   float64 // end-to-end only: BENCHMARK.json's bound, relative
	Gate    float64 // end-to-end only: -compare's threshold
	GateAbs bool    // Gate is in the metric's unit, not a share of the median
	Layer   string  // per-layer only
	// Moves says which end-to-end metric on which workload the layer metric
	// should move when it moves — the prediction a later change is held to.
	Moves string
	What  string
}

// EndToEnd are the metrics a user of the server would see, reported by every
// workload run with tracing off.
var EndToEnd = []Metric{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Gate: 0.10,
		What: "benchserver exec to first 200 from /healthz: snapshot verify and load, catalog and RQ index, ANN build, warm (median of the run's server starts)"},
	{Name: "svc_p50_us", Unit: "us", Better: "lower", Bound: 0.25, Gate: 0.05,
		What: "client latency median, service phase (closed loop, 1 connection)"},
	{Name: "svc_p95_us", Unit: "us", Better: "lower", Bound: 0.25, Gate: 0.10,
		What: "client latency p95, service phase"},
	{Name: "qps", Unit: "1/s", Better: "higher", Bound: 0.25, Gate: 0.10,
		What: "successful answers per second, capacity phase (closed loop, one connection per core)"},
	{Name: "paced_ok_frac", Unit: "ratio", Better: "higher", Bound: 0.15, Gate: 0.01, GateAbs: true,
		What: "share of the requests sent in the paced phase that succeed within 10 ms of their due time"},
	{Name: "hit_at_5", Unit: "ratio", Better: "higher", Bound: 0.25, Gate: 0.005, GateAbs: true,
		What: "share of clicks after a session's first that land on a tag of the panel shown just before"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25, Gate: 0.10,
		What: "benchserver peak resident memory (VmHWM) at the end of the run"},
	{Name: "swap_s", Unit: "s", Better: "lower", Bound: 0.25, Gate: 0.10,
		What: "median wall time of POST /admin/swap while the workload's traffic runs"},
}

// PerLayer are the single-layer metrics of the traced run.
var PerLayer = []Metric{
	{Layer: "http", Name: "http.self_us_p50", Unit: "us", Better: "lower", Moves: "svc_p50_us, qps on memo_reads",
		What: "loopback round trip minus the same request through Server.ServeHTTP: net/http, sockets, wake-ups"},
	{Layer: "http", Name: "http.self_us_p99", Unit: "us", Better: "lower", Moves: "svc_p95_us on memo_reads"},

	{Layer: "serving", Name: "serving.handler_self_us_p50", Unit: "us", Better: "lower", Moves: "svc_p50_us, qps on memo_reads",
		What: "ServeHTTP minus the direct Engine call: route, JSON decode and encode, telemetry"},
	{Layer: "serving", Name: "serving.engine_self_us_p50", Unit: "us", Better: "lower", Moves: "svc_p50_us, qps on big_tenant_clicks",
		What: "Engine call minus its leaf calls: shard lock, memo, centroid, tenant filter, rank and sort"},
	{Layer: "serving", Name: "serving.click_us_p50", Unit: "us", Better: "lower", Moves: "svc_p50_us on big_tenant_clicks, session_mix"},
	{Layer: "serving", Name: "serving.recommend_hit_us_p50", Unit: "us", Better: "lower", Moves: "svc_p50_us on memo_reads"},
	{Layer: "serving", Name: "serving.recommend_miss_us_p50", Unit: "us", Better: "lower", Moves: "svc_p95_us on session_mix, memo_reads"},
	{Layer: "serving", Name: "serving.ask_us_p50", Unit: "us", Better: "lower", Moves: "svc_p95_us on session_mix"},
	{Layer: "serving", Name: "serving.allocs_per_click", Unit: "count", Better: "lower", Moves: "qps on big_tenant_clicks; runtime.gc_cycles"},
	{Layer: "serving", Name: "serving.bytes_per_click", Unit: "B", Better: "lower", Moves: "qps on big_tenant_clicks; peak_rss_mb"},
	{Layer: "serving", Name: "serving.memo_hit_frac", Unit: "ratio", Better: "higher", Moves: "workload check: 0 on big_tenant_clicks, high on memo_reads"},
	{Layer: "serving", Name: "serving.path_ann_frac", Unit: "ratio", Better: "higher", Moves: "workload check: >= 0.95 on big_tenant_clicks, 0 on memo_reads"},
	{Layer: "serving", Name: "serving.path_exhaustive_frac", Unit: "ratio", Better: "lower", Moves: "workload check"},
	{Layer: "serving", Name: "serving.path_fallback_frac", Unit: "ratio", Better: "lower", Moves: "svc_p95_us on big_tenant_clicks (a fallback scores the whole catalog)"},
	{Layer: "serving", Name: "serving.path_coldstart_frac", Unit: "ratio", Better: "lower", Moves: "workload check"},
	{Layer: "serving", Name: "serving.top5_exact_frac", Unit: "ratio", Better: "higher", Moves: "hit_at_5 on big_tenant_clicks",
		What: "share of the exhaustive model ranking's top 5 that the served panel contains (sampled clicks)"},

	{Layer: "ann", Name: "ann.search_us_p50", Unit: "us", Better: "lower", Moves: "svc_p50_us on big_tenant_clicks; none on memo_reads"},
	{Layer: "ann", Name: "ann.search_allocs", Unit: "count", Better: "lower", Moves: "qps on big_tenant_clicks"},
	{Layer: "ann", Name: "ann.recall_at_64", Unit: "ratio", Better: "higher", Moves: "hit_at_5 on big_tenant_clicks",
		What: "overlap of the 64 retrieved tags with ann.Exact's 64 (sampled)"},
	{Layer: "ann", Name: "ann.survivor_frac", Unit: "ratio", Better: "higher", Moves: "core.score_cands_mean",
		What: "retrieved tags that are in the tenant's catalog over K: the rest is wasted retrieval"},
	{Layer: "ann", Name: "ann.build_ms", Unit: "ms", Better: "lower", Moves: "setup_s, swap_s"},

	{Layer: "core", Name: "core.score_us_p50", Unit: "us", Better: "lower", Moves: "svc_p50_us on big_tenant_clicks, session_mix"},
	{Layer: "core", Name: "core.score_cands_mean", Unit: "count", Better: "lower", Moves: "core.score_us_p50"},
	{Layer: "core", Name: "core.score_allocs", Unit: "count", Better: "lower", Moves: "qps on big_tenant_clicks"},
	{Layer: "core", Name: "core.snapshot_load_ms", Unit: "ms", Better: "lower", Moves: "setup_s, swap_s"},

	{Layer: "search", Name: "search.query_us_p50", Unit: "us", Better: "lower", Moves: "svc_p50_us, qps on big_tenant_clicks, session_mix"},
	{Layer: "search", Name: "search.query_allocs", Unit: "count", Better: "lower", Moves: "qps on big_tenant_clicks"},
	{Layer: "search", Name: "search.build_ms", Unit: "ms", Better: "lower", Moves: "setup_s"},

	{Layer: "store", Name: "store.append_ns_p50", Unit: "ns", Better: "lower", Moves: "qps on big_tenant_clicks (one append per click)"},

	{Layer: "snapshot", Name: "snapshot.verify_ms", Unit: "ms", Better: "lower", Moves: "setup_s, swap_s"},

	{Layer: "obs", Name: "obs.telemetry_overhead_frac", Unit: "ratio", Better: "lower", Moves: "svc_p50_us on memo_reads",
		What: "ServeHTTP median with EnableTelemetry over without, minus one"},

	{Layer: "runtime", Name: "runtime.cpu_ms_per_kreq", Unit: "ms", Better: "lower", Moves: "qps on every workload",
		What: "benchserver CPU time per thousand requests over the measured phases"},
	{Layer: "runtime", Name: "runtime.allocs_per_req", Unit: "count", Better: "lower", Moves: "qps; runtime.gc_cycles"},
	{Layer: "runtime", Name: "runtime.bytes_per_req", Unit: "B", Better: "lower", Moves: "qps; peak_rss_mb"},
	{Layer: "runtime", Name: "runtime.gc_cycles", Unit: "count", Better: "lower", Moves: "svc_p95_us, svc_p99_us"},
	{Layer: "runtime", Name: "runtime.gc_pause_total_ms", Unit: "ms", Better: "lower", Moves: "svc_p95_us, svc_p99_us"},

	{Layer: "load", Name: "svc_p99_us", Unit: "us", Better: "lower", Moves: "none: the service phase's p99 over its pooled samples, too unsteady here to carry a bound",
		What: "the one-core server's garbage collections reach 1-2% of requests, so p99 sits on the edge between served-at-once and waited-for-the-collector and swings by a quarter to a half from run to run"},
	{Layer: "load", Name: "load.late_p99_us", Unit: "us", Better: "lower", Moves: "none: above 10% of the latency limit the paced phase is unresolved",
		What: "how long after its due time a paced request was sent"},
	{Layer: "load", Name: "load.paced_p50_us", Unit: "us", Better: "lower", Moves: "none: generator check"},
	{Layer: "load", Name: "load.paced_p99_us", Unit: "us", Better: "lower", Moves: "none: generator check"},
	{Layer: "load", Name: "load.sent", Unit: "count", Better: "higher", Moves: "none: generator check"},
	{Layer: "load", Name: "load.server_cpu_frac", Unit: "ratio", Better: "higher", Moves: "none: well below 1 something other than the server limits qps",
		What: "benchserver CPU time over wall time and GOMAXPROCS in the capacity phase (the generator polls, so its own share is 1 by construction)"},
	{Layer: "load", Name: "load.swaps", Unit: "count", Better: "higher", Moves: "none: swaps completed in the run"},

	{Layer: "trace", Name: "trace.overhead_frac", Unit: "ratio", Better: "lower", Moves: "none",
		What: "traced tier-A median over the untraced svc_p50_us of the same invocation, minus one"},
	{Layer: "trace", Name: "trace.self_sum_frac", Unit: "ratio", Better: "higher", Moves: "none: within 10% of 1 the layers account for the round trip",
		What: "sum of the layers' median self times over the median tier-A round trip, per request class, weighted by class size"},
}

// Find returns the named metric from either table.
func Find(name string) (Metric, bool) {
	for _, tab := range [][]Metric{EndToEnd, PerLayer} {
		for _, m := range tab {
			if m.Name == name {
				return m, true
			}
		}
	}
	return Metric{}, false
}
