package harness

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"time"

	"intellitag/benchmark/gen"
	"intellitag/benchmark/prep"
	"intellitag/benchmark/report"
	"intellitag/benchmark/stat"
	"intellitag/benchmark/wl"
)

// Layout is the fixed division of the machine between the two processes
// (report.CoreSplit), from the number of CPUs the driver may use: the server
// runs with GOMAXPROCS = max(1, n-1), the generator with GOMAXPROCS 1, and
// the capacity phase opens one connection per CPU (at least two, so that it
// differs from the service phase, and at most eight). Nothing is pinned: the
// generator never sleeps while it measures (see gen.Conn), so the kernel
// keeps the server's threads on the other CPUs by itself.
type Layout struct {
	NumCPU      int
	ServerProcs int
	Conns       int
}

// NewLayout reads the CPU count.
func NewLayout() Layout {
	n := runtime.NumCPU()
	return Layout{NumCPU: n, ServerProcs: max(1, n-1), Conns: min(max(n, 2), 8)}
}

// slicePattern cuts the measured seconds into fifteen equal slices — five of
// service (S), four of capacity (C), six of paced (P) — and interleaves them,
// so that every phase samples the whole run. The closed-loop phases report
// their best slice: the lowest p50, the lowest p95, the highest rate. The
// sandbox slows down by 10-30% for seconds at a time, every few minutes, and
// never speeds up: a phase run in one piece can fall wholly inside such an
// episode, its slices spread over the run rarely all do, and the best of
// them is the one least disturbed. (On swap_under_load the median of three
// slices' p95 spread 26% over ten runs, their minimum 8%.)
const slicePattern = "SCPSCPSCPSCPSPP"

// swapSlicePattern is swap_under_load's: nine slices, three of each phase.
// There a slice is also the swap period and every slice opens on a swap; the
// warm-up is one more period with one more swap, ten swaps a run. The slices
// are longer (2.2 s at the benchmark's 20 s) because what the workload
// measures is how much of a period a swap takes away: with a swap running a
// third of the time a 10% slower swap costs qps and paced_ok_frac 5%; at a
// 1.33 s period, where it ran half the time, the same 10% cost them 12-15%,
// and the swap's own run-to-run spread swamped both.
const swapSlicePattern = "SCPSCPSCP"

const (
	// warmSwaps is how many version swaps the warm-up of a workload without
	// swaps of its own makes under its traffic; swap_s is their median. An
	// odd count leaves the measured phases on v2, the fine-tuned child.
	warmSwaps = 3
	// minWarm is the shortest warm-up.
	minWarm = time.Second
	// MinSwaps is how many swaps a swap_under_load run must complete.
	MinSwaps = 10
)

// Options configures one external run.
type Options struct {
	Layout    Layout
	ServerBin string
	Prepared  *prep.Prepared
	World     *wl.World
	WorldName string // the prepared world's -world name, passed to the server
	Spec      wl.Spec
	Seed      int64
	Seconds   float64 // measured time, divided between service, capacity and paced
	SetupReps int     // server starts; setup_s is their median
}

// Result is one external run's outcome.
type Result struct {
	Setup     report.Setup
	Phases    []report.Phase
	SetupS    []float64
	SwapS     []float64
	Values    map[string]float64 // end-to-end, runtime.* and load.* metrics
	Attempted int
	Failed    int
	Errors    []string
	Warnings  []string
}

// ActiveVersion is the snapshot version the measured phases of a workload
// without swaps run on.
func ActiveVersion(rec prep.Record) string {
	if warmSwaps%2 == 1 {
		return rec.V2
	}
	return rec.V1
}

// Run measures one workload against a server process of its own.
func Run(o Options) (*Result, error) {
	conns := o.Layout.Conns
	rec := o.Prepared.Record
	res := &Result{
		Values: map[string]float64{},
		Setup: report.Setup{
			CoreSplit: report.CoreSplit,
			NumCPU:    o.Layout.NumCPU, ServerProcs: o.Layout.ServerProcs, GenProcs: 1, Conns: conns,
			WorldDigest: rec.Digest, Tags: rec.Tags, Tenants: rec.Tenants, V1: rec.V1, V2: rec.V2,
			TrainS: rec.TrainS, Retrieval: "serving.DefaultRetrievalConfig (hnsw, K 64, MinCatalog 256)",
		},
	}
	args := []string{"-work", o.Prepared.Work, "-world", o.WorldName, "-procs", strconv.Itoa(o.Layout.ServerProcs)}

	// Set-up, several times over: only the last server is kept.
	var srv *server
	for i := 0; i < o.SetupReps; i++ {
		if srv != nil {
			if err := srv.stop(); err != nil {
				return nil, err
			}
		}
		s, took, err := startServer(o.ServerBin, args)
		if err != nil {
			return nil, err
		}
		srv = s
		res.SetupS = append(res.SetupS, took.Seconds())
	}
	defer func() {
		if err := srv.stop(); err != nil {
			res.Warnings = append(res.Warnings, err.Error())
		}
	}()

	workers := make([]*gen.Worker, conns)
	for c := range workers {
		stream, err := wl.NewStream(o.Spec, o.World, o.Seed, c)
		if err != nil {
			return nil, err
		}
		w, err := gen.NewWorker(srv.addr, stream, wl.NewChecker(o.World))
		if err != nil {
			return nil, err
		}
		defer w.Close()
		workers[c] = w
	}
	// tally books a phase (or a slice of one) into the run's totals.
	tally := func(ph report.Phase, ws []*gen.Worker) {
		res.Attempted += ph.Sent
		res.Failed += ph.Failed
		for _, w := range ws {
			for _, e := range w.Errs {
				if len(res.Errors) < 10 {
					res.Errors = append(res.Errors, ph.Name+": "+e)
				}
			}
		}
	}

	// Warm-up, untimed: one closed loop fills pools, session tables and
	// caches while the swaps that swap_s is taken from run beside it — three
	// of them, or on swap_under_load the first of the run's periodic ones.
	versions := [2]string{rec.V2, rec.V1}
	pattern := slicePattern
	if o.Spec.Swap {
		pattern = swapSlicePattern
	}
	slice := seconds(o.Seconds / float64(len(pattern)))
	limit, period, warmFor := warmSwaps, time.Duration(0), minWarm
	if o.Spec.Swap {
		limit, period, warmFor = 0, slice, slice
	}
	sw := startSwapper(srv.addr, versions, period, limit)
	warmStart := time.Now()
	for !(time.Since(warmStart) >= warmFor && (o.Spec.Swap || sw.finished())) {
		workers[0].Closed(time.Now().Add(50 * time.Millisecond))
	}
	warm := phaseOf("warmup", "closed", workers[:1], time.Since(warmStart), 0)
	tally(warm, workers[:1])
	res.Phases = append(res.Phases, warm)
	if !o.Spec.Swap {
		var err error
		if res.SwapS, err = sw.stop(); err != nil {
			return nil, err
		}
	}

	srvBefore, err := srv.runtimeStat()
	if err != nil {
		return nil, err
	}

	// The measured slices, interleaved: each phase samples the whole run.
	//   service:  one connection, closed loop — latency is service time.
	//   capacity: one connection per core, closed loop — throughput.
	//   paced:    the workload's fixed rate on a schedule, timed from due time.
	limitDur := time.Duration(wl.LimitUS * float64(time.Microsecond))
	service := closedPhase{Phase: report.Phase{Name: "service", Loop: "closed", Conns: 1}}
	capacity := closedPhase{Phase: report.Phase{Name: "capacity", Loop: "closed", Conns: conns}}
	paced := report.Phase{Name: "paced", Loop: "paced", Conns: 1, RateQPS: o.Spec.PacedRate}
	var pacedLat, late []float64
	var inLimit int
	var srvCapCPU int64
	for _, kind := range pattern {
		reset(workers)
		switch kind {
		case 'S':
			tally(service.slice(workers[:1], slice), workers[:1])
		case 'C':
			before, err := srv.runtimeStat()
			if err != nil {
				return nil, err
			}
			tally(capacity.slice(workers, slice), workers)
			after, err := srv.runtimeStat()
			if err != nil {
				return nil, err
			}
			srvCapCPU += after.CPUNs - before.CPUNs
		case 'P':
			w := workers[0]
			start := time.Now()
			w.Paced(start, start.Add(slice), o.Spec.PacedRate, limitDur)
			ph := phaseOf("paced", "paced", workers[:1], time.Since(start), o.Spec.PacedRate)
			tally(ph, workers[:1])
			paced.Seconds += ph.Seconds
			paced.Sent += ph.Sent
			paced.OK += ph.OK
			paced.Failed += ph.Failed
			paced.Slices++
			pacedLat = append(pacedLat, w.Lat...)
			late = append(late, w.Late...)
			inLimit += w.InLimit
		}
	}
	service.finish()
	capacity.finish()
	pacedLat, late = stat.Sorted(pacedLat), stat.Sorted(late)
	paced.Samples = len(pacedLat)
	paced.P50US, paced.P95US = stat.Percentile(pacedLat, 0.5), stat.Percentile(pacedLat, 0.95)
	paced.P99US, paced.MaxUS = stat.Percentile(pacedLat, 0.99), stat.Percentile(pacedLat, 1)
	res.Phases = append(res.Phases, service.Phase, capacity.Phase, paced)

	if o.Spec.Swap {
		if res.SwapS, err = sw.stop(); err != nil {
			return nil, err
		}
	}
	srvAfter, err := srv.runtimeStat()
	if err != nil {
		return nil, err
	}
	if len(res.SwapS) == 0 {
		return nil, fmt.Errorf("harness: no swap completed during the run")
	}

	var hits, steps int
	for _, w := range workers {
		hits += w.Checker().Hits
		steps += w.Checker().Steps
	}
	if steps == 0 {
		return nil, fmt.Errorf("harness: workload %s produced no session step to score hit_at_5 on", o.Spec.Name)
	}
	v := res.Values
	v["setup_s"] = stat.Median(res.SetupS)
	v["svc_p50_us"] = service.P50US
	v["svc_p95_us"] = service.P95US
	v["qps"] = capacity.QPS
	v["paced_ok_frac"] = float64(inLimit) / float64(max(paced.Sent, 1))
	v["hit_at_5"] = float64(hits) / float64(steps)
	v["peak_rss_mb"] = float64(srvAfter.PeakRSSBytes) / (1 << 20)
	v["swap_s"] = stat.Median(res.SwapS)

	reqs := float64(service.Sent + capacity.Sent + paced.Sent)
	v["runtime.cpu_ms_per_kreq"] = float64(srvAfter.CPUNs-srvBefore.CPUNs) / 1e6 / (reqs / 1e3)
	v["runtime.allocs_per_req"] = float64(srvAfter.Mallocs-srvBefore.Mallocs) / reqs
	v["runtime.bytes_per_req"] = float64(srvAfter.AllocBytes-srvBefore.AllocBytes) / reqs
	v["runtime.gc_cycles"] = float64(srvAfter.GCCycles - srvBefore.GCCycles)
	v["runtime.gc_pause_total_ms"] = float64(srvAfter.GCPauseNs-srvBefore.GCPauseNs) / 1e6
	v["svc_p99_us"] = service.P99US
	v["load.late_p99_us"] = stat.Percentile(late, 0.99)
	v["load.paced_p50_us"] = paced.P50US
	v["load.paced_p99_us"] = paced.P99US
	v["load.sent"] = float64(res.Attempted)
	v["load.server_cpu_frac"] = float64(srvCapCPU) / (capacity.Seconds * 1e9 * float64(o.Layout.ServerProcs))
	v["load.swaps"] = float64(len(res.SwapS))

	if v["load.late_p99_us"] > 0.1*wl.LimitUS {
		res.Warnings = append(res.Warnings, fmt.Sprintf(
			"paced phase unresolved: the generator sent its p99 request %.0f us late, over 10%% of the %.0f us limit",
			v["load.late_p99_us"], wl.LimitUS))
	}
	if service.Samples < 1000 {
		res.Warnings = append(res.Warnings, fmt.Sprintf(
			"svc_p99_us rests on %d samples: fewer than 10 lie beyond it", service.Samples))
	}
	return res, nil
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func reset(ws []*gen.Worker) {
	for _, w := range ws {
		w.Reset()
	}
}

// closedPhase gathers a closed-loop phase from its slices: counts over all of
// them; p50, p95 and rate from the best slice for each; p99 and the maximum
// over their pooled samples, because one slice alone has too few samples
// beyond its p99.
type closedPhase struct {
	report.Phase
	lat []float64
}

// slice runs the workers' closed loops for d as one more slice of the phase.
func (c *closedPhase) slice(ws []*gen.Worker, d time.Duration) report.Phase {
	took := gen.RunClosed(ws, d)
	ph := phaseOf(c.Name, c.Loop, ws, took, 0)
	for _, w := range ws {
		c.lat = append(c.lat, w.Lat...)
	}
	c.Slices++
	c.Seconds += ph.Seconds
	c.Sent += ph.Sent
	c.OK += ph.OK
	c.Failed += ph.Failed
	c.Samples += ph.Samples
	c.SliceP50US = append(c.SliceP50US, ph.P50US)
	c.SliceP95US = append(c.SliceP95US, ph.P95US)
	c.SliceQPS = append(c.SliceQPS, float64(ph.OK)/ph.Seconds)
	return ph
}

func (c *closedPhase) finish() {
	c.P50US, c.P95US, c.QPS = slices.Min(c.SliceP50US), slices.Min(c.SliceP95US), slices.Max(c.SliceQPS)
	sort.Float64s(c.lat)
	c.P99US, c.MaxUS = stat.Percentile(c.lat, 0.99), stat.Percentile(c.lat, 1)
}

// phaseOf summarises the workers' samples of the phase just run.
func phaseOf(name, loop string, ws []*gen.Worker, took time.Duration, rate float64) report.Phase {
	ph := report.Phase{Name: name, Loop: loop, Conns: len(ws), Seconds: took.Seconds(), RateQPS: rate}
	var lat []float64
	for _, w := range ws {
		ph.Sent += w.Sent
		ph.OK += w.OK
		ph.Failed += w.Failed
		lat = append(lat, w.Lat...)
	}
	sort.Float64s(lat)
	ph.Samples = len(lat)
	ph.P50US = stat.Percentile(lat, 0.5)
	ph.P95US = stat.Percentile(lat, 0.95)
	ph.P99US = stat.Percentile(lat, 0.99)
	ph.MaxUS = stat.Percentile(lat, 1)
	return ph
}
