// Command simulate drives the online user-population simulation (the
// paper's Section VI-F evaluation) against a chosen model and prints daily
// CTR, HIR and latency.
//
// Usage:
//
//	simulate [-model intellitag|bert4rec|metapath2vec|popularity] [-days 10] [-sessions 150] [-fast] [-seed 1]
//	         [-telemetry-addr localhost:9090] [-trace-sample 64]
//	         [-replicas 1] [-snapshots DIR] [-swap-at-day 0] [-swap-stagger 50ms]
//	         [-record trace.httprr] [-record-sessions 5]
//	         [-online] [-online-out BENCH_ONLINE_PR10.json] [-online-snapshots DIR]
//
// With -online, instead of the single-bucket simulation, the online-learning
// demo runs: a frozen bucket and a streaming-learner bucket serve the same
// base snapshot over a world whose click process drifts mid-run, the online
// bucket fine-tunes on the live stream and recovers CTR, and the run ends
// with a poison drill (garbage-label round → gate block → forced promotion →
// drift-monitor auto-rollback). See cmd/simulate/online.go.
//
// With -record, instead of simulating, the held-out sessions' click →
// recommend round-trips are driven over HTTP against the configured model and
// sealed into a checksummed httprr trace for deterministic replay (serving
// tests, loadgen -trace).
//
// With -snapshots, the simulation serves the store's EARLIEST committed
// version (trained by tagrec-train -snapshots) instead of training in
// process, and -swap-at-day N performs a live rolling swap to the store's
// latest version after day N completes — traffic keeps flowing across the
// flip, and the end-of-run summary lists every version served.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"strings"
	"time"

	"intellitag/internal/baselines"
	"intellitag/internal/core"
	"intellitag/internal/httprr"
	"intellitag/internal/obs"
	"intellitag/internal/prof"
	"intellitag/internal/serving"
	"intellitag/internal/snapshot"
	"intellitag/internal/store"
	"intellitag/internal/synth"
)

func main() {
	model := flag.String("model", "intellitag", "model to serve: intellitag, bert4rec, metapath2vec, popularity")
	days := flag.Int("days", 10, "simulated days")
	sessionsPerDay := flag.Int("sessions", 150, "sessions per day")
	fast := flag.Bool("fast", true, "use the small world")
	seed := flag.Int64("seed", 1, "world seed")
	telemetryAddr := flag.String("telemetry-addr", "", "serve /metrics and /debug/trace for the live run on this address")
	traceSample := flag.Int("trace-sample", 64, "sample one request trace in every N (with -telemetry-addr)")
	replicas := flag.Int("replicas", 1, "engine replicas behind the session hash")
	snapshots := flag.String("snapshots", "", "serve model versions from this snapshot store instead of training in process")
	swapAtDay := flag.Int("swap-at-day", 0, "rolling-swap to the store's latest version after this 1-based day (with -snapshots; 0 disables)")
	swapStagger := flag.Duration("swap-stagger", 50*time.Millisecond, "pause between replica flips during the rolling swap")
	annOn := flag.Bool("ann", false, "retrieve-then-rank: ANN candidate retrieval when the model exposes tag embeddings")
	annK := flag.Int("ann-k", 64, "candidates retrieved per request before ranking")
	annBackend := flag.String("ann-backend", "hnsw", "retrieval backend: hnsw or lsh")
	annMinCatalog := flag.Int("ann-min-catalog", 256, "tenant catalogs below this size are scored exhaustively")
	record := flag.String("record", "", "record held-out sessions' HTTP click → recommend traffic to this httprr trace and exit")
	recordSessions := flag.Int("record-sessions", 5, "held-out sessions to record with -record")
	onlineMode := flag.Bool("online", false, "run the online-learning demo: frozen vs streaming-learner buckets over a drifting world, ending in a poison/rollback drill")
	onlineOut := flag.String("online-out", "", "write the -online report JSON here")
	onlineSnaps := flag.String("online-snapshots", "", "snapshot store dir for the -online version spine (default: a temp dir, removed on exit)")
	flag.Parse()
	defer prof.Start()()

	if *onlineMode {
		if err := runOnline(onlineOpts{
			days: *days, sessionsPerDay: *sessionsPerDay, seed: *seed, fast: *fast,
			replicas: *replicas, stagger: *swapStagger, snapshots: *onlineSnaps, out: *onlineOut,
		}); err != nil {
			log.Fatalf("-online: %v", err)
		}
		return
	}

	worldCfg := synth.DefaultConfig()
	if *fast {
		worldCfg = synth.SmallConfig()
	}
	worldCfg.Seed = *seed
	world := synth.Generate(worldCfg)
	train, _, heldout := world.SplitSessions(0.9, 0.05)
	graph := world.BuildGraph(train)
	var clicks [][]int
	for _, s := range train {
		clicks = append(clicks, s.Clicks)
	}
	prefixes := core.ExpandPrefixes(clicks)

	catalog, index := serving.BuildCatalog(world, train)
	recCfg := core.DefaultConfig()
	if *fast {
		recCfg.Dim, recCfg.Heads = 16, 2
	}
	start := time.Now()
	var bundle *serving.ModelBundle
	var snapStore *snapshot.Store
	if *snapshots != "" {
		// Serve from the store: start on the EARLIEST committed version so a
		// -swap-at-day run visibly rolls forward to the latest one.
		if *model != "intellitag" {
			log.Fatalf("-snapshots serves the intellitag model, not %q", *model)
		}
		var err error
		snapStore, err = snapshot.Open(*snapshots)
		if err != nil {
			log.Fatalf("open -snapshots: %v", err)
		}
		list, err := snapStore.List()
		if err != nil {
			log.Fatalf("list -snapshots: %v", err)
		}
		if len(list) == 0 {
			log.Fatalf("-snapshots %s holds no committed versions (run tagrec-train -snapshots first)", *snapshots)
		}
		first := list[0]
		m, _, err := core.LoadSnapshotVersion(snapStore, first.ID, recCfg)
		if err != nil {
			log.Fatalf("load snapshot %s: %v", first.ID, err)
		}
		bundle = &serving.ModelBundle{VersionID: first.ID, Catalog: catalog, Index: index, Scorer: m}
		log.Printf("serving snapshot %s (%d committed in store)", first.ID, len(list))
	} else {
		var scorer serving.Scorer
		switch *model {
		case "intellitag":
			m := core.Build(recCfg, graph, nil)
			tc := core.DefaultTrainConfig()
			if *fast {
				tc.Epochs, tc.JointEpochs = 2, 2
			}
			core.TrainFull(m, graph, prefixes, tc)
			m.Freeze()
			scorer = m
		case "bert4rec":
			m := baselines.NewBERT4Rec(world.NumTags(), 16, 2, 2, 12, 0.2, 12)
			tc := baselines.DefaultTrainConfig()
			if *fast {
				tc.Epochs = 2
			}
			m.Train(prefixes, tc)
			scorer = m
		case "metapath2vec":
			scorer = baselines.NewMetapath2Vec(graph, 16, clicks, baselines.DefaultMetapath2VecConfig())
		case "popularity":
			scorer = popScorer{catalog.Popularity}
		default:
			log.Fatalf("unknown model %q", *model)
		}
		bundle = &serving.ModelBundle{Catalog: catalog, Index: index, Scorer: scorer}
	}
	log.Printf("model %s ready in %s", bundle.Scorer.Name(), time.Since(start).Round(time.Millisecond))

	rs := serving.NewReplicaSet(bundle, *replicas, 1, store.NewLog(), nil)
	if *annOn {
		rs.SetRetrieval(serving.RetrievalConfig{
			Enabled: true, K: *annK, Backend: *annBackend,
			MinCatalog: *annMinCatalog, RecallSample: 64,
		})
		if _, ok := bundle.Scorer.(serving.TagEmbedder); !ok {
			log.Printf("-ann: model %s exposes no tag embeddings; serving stays exhaustive", bundle.Scorer.Name())
		} else {
			log.Printf("ANN retrieval on: backend=%s k=%d min-catalog=%d", *annBackend, *annK, *annMinCatalog)
		}
	}
	if *telemetryAddr != "" {
		reg := obs.NewRegistry()
		tracer := obs.NewTracer(*traceSample, 256)
		for _, e := range rs.Engines() {
			e.SetTelemetry(reg, tracer)
		}
		addr, err := obs.ServeBackground(*telemetryAddr, obs.Mux(reg, tracer))
		if err != nil {
			log.Fatalf("serve -telemetry-addr: %v", err)
		}
		log.Printf("telemetry on http://%s/metrics (traces at /debug/trace)", addr)
	}
	if *record != "" {
		if err := recordTraffic(rs, heldout, *record, *recordSessions); err != nil {
			log.Fatalf("-record: %v", err)
		}
		return
	}
	simCfg := serving.DefaultSimConfig()
	simCfg.Days = *days
	simCfg.SessionsPerDay = *sessionsPerDay
	if *swapAtDay > 0 {
		if snapStore == nil {
			log.Fatal("-swap-at-day requires -snapshots")
		}
		simCfg.OnDayEnd = func(day int) {
			if day+1 != *swapAtDay {
				return
			}
			latest, err := snapStore.Latest()
			if err != nil {
				log.Printf("swap: %v", err)
				return
			}
			if latest.ID == bundle.VersionID {
				log.Printf("swap: latest version %s is already serving", latest.ID)
				return
			}
			m, _, err := core.LoadSnapshotVersion(snapStore, latest.ID, recCfg)
			if err != nil {
				log.Printf("swap: load %s: %v", latest.ID, err)
				return
			}
			log.Printf("day %d done: rolling swap %s -> %s over %d replicas",
				day+1, bundle.VersionID, latest.ID, rs.Size())
			rs.RollingSwap(&serving.ModelBundle{
				VersionID: latest.ID, Catalog: catalog, Index: index, Scorer: m,
			}, *swapStagger)
		}
	}
	res := serving.SimulateSet(world, rs, simCfg)

	fmt.Printf("%-5s %10s %10s %8s\n", "day", "macroCTR", "microCTR", "HIR")
	for _, d := range res.Days {
		fmt.Printf("%-5d %10.3f %10.3f %8.3f\n", d.Day+1, d.MacroCTR, d.MicroCTR, d.HIR)
	}
	fmt.Printf("\nmean macro CTR %.3f | mean HIR %.3f | latency mean %s p95 %s (%d requests)\n",
		res.MeanMacroCTR(), res.MeanHIR(), res.Latency.Mean, res.Latency.P95, res.Latency.N)
	fmt.Printf("replicas %d | versions served: %s\n", res.Replicas, strings.Join(res.Versions, " -> "))
	for _, vi := range rs.Versions() {
		fmt.Printf("  replica %d: %s (model %s, %d swaps, drained %v)\n",
			vi.Replica, vi.ID, vi.Model, vi.Swaps, vi.Drained)
	}
	if *annOn {
		var st serving.RetrievalStats
		for _, e := range rs.Engines() {
			s := e.RetrievalStats()
			st.Enabled, st.Backend, st.IndexSize, st.IndexBuilds = s.Enabled, s.Backend, s.IndexSize, s.IndexBuilds
			st.ANN += s.ANN
			st.Fallback += s.Fallback
			st.Exhaustive += s.Exhaustive
			st.ColdStart += s.ColdStart
		}
		fmt.Printf("retrieval: enabled=%v backend=%s index=%d builds=%d | paths ann=%d fallback=%d exhaustive=%d coldstart=%d\n",
			st.Enabled, st.Backend, st.IndexSize, st.IndexBuilds, st.ANN, st.Fallback, st.Exhaustive, st.ColdStart)
	}
}

// recordTraffic replays the first n held-out sessions as HTTP click →
// recommend round-trips against the configured model, served in-process, and
// seals the traffic into a checksummed httprr trace — deterministic replay
// fodder for serving tests and loadgen -trace.
func recordTraffic(rs *serving.ReplicaSet, sessions []synth.Session, path string, n int) error {
	server := serving.NewServer(serving.NewReplicatedABRouter(rs))
	hostport, err := obs.ServeBackground("127.0.0.1:0", server)
	if err != nil {
		return err
	}
	base := "http://" + hostport

	rec := httprr.NewRecorder(nil)
	client := &http.Client{Transport: rec, Timeout: 30 * time.Second}
	post := func(path, body string) error {
		resp, err := client.Post(base+path, "application/json", strings.NewReader(body))
		if err != nil {
			return err
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			return err
		}
		if err := resp.Body.Close(); err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("POST %s: status %d", path, resp.StatusCode)
		}
		return nil
	}

	if n > len(sessions) {
		n = len(sessions)
	}
	for _, s := range sessions[:n] {
		if err := post("/recommend", fmt.Sprintf(`{"tenant":%d,"session":%d,"k":5}`, s.Tenant, s.ID)); err != nil {
			return err
		}
		for _, tag := range s.Clicks {
			if err := post("/click", fmt.Sprintf(`{"tenant":%d,"session":%d,"tag":%d,"k":5}`, s.Tenant, s.ID, tag)); err != nil {
				return err
			}
			if err := post("/recommend", fmt.Sprintf(`{"tenant":%d,"session":%d,"k":5}`, s.Tenant, s.ID)); err != nil {
				return err
			}
		}
	}
	if err := rec.Save(path); err != nil {
		return err
	}
	log.Printf("recorded %d round-trips from %d sessions to %s", rec.Len(), n, path)
	return nil
}

// popScorer ranks by global popularity (the cold-start fallback as a
// standalone bucket).
type popScorer struct{ pop []float64 }

// ScoreCandidates implements serving.Scorer.
func (p popScorer) ScoreCandidates(history, candidates []int) []float64 {
	out := make([]float64, len(candidates))
	for i, c := range candidates {
		out[i] = p.pop[c]
	}
	return out
}

// Name implements serving.Scorer.
func (p popScorer) Name() string { return "popularity" }
