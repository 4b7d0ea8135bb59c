package trace

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"time"

	"intellitag/benchmark/gen"
	"intellitag/benchmark/prep"
	"intellitag/benchmark/stat"
	"intellitag/benchmark/wl"
	"intellitag/internal/ann"
	"intellitag/internal/core"
	"intellitag/internal/mat"
	"intellitag/internal/obs"
	"intellitag/internal/search"
	"intellitag/internal/serving"
	"intellitag/internal/store"
)

// Layer span names. A request's spans nest in this order; the last four are
// the leaf calls the engine makes, timed with the inputs it would use.
const (
	spanHTTP    = "http"            // tier A: loopback round trip through net/http
	spanHandler = "serving.handler" // tier B: Server.ServeHTTP into a recorder
	spanEngine  = "serving.engine"  // tier C: Engine.Click / RecommendTags / Ask
	spanAppend  = "store.append"
	spanANN     = "ann.search"
	spanScore   = "core.score"
	spanSearch  = "search.query"
)

// Session-id offsets that give each tier its own sessions on one stack. A
// multiple of 16 keeps a session on the same engine shard in every tier.
const (
	nsA = iota * (1 << 44)
	nsB
	nsC
	nsAlloc
)

// Request classes: the four shapes of work a request can be.
const (
	classClick = iota
	classRecHit
	classRecMiss
	classAsk
	numClasses
)

// SelfSumTolerance is how far from 1 trace.self_sum_frac may lie before the
// traced run is rejected. The layers' median self times are asked to account
// for the median tier-A round trip to within a tenth, and they do: 0.90-0.91
// on big_tenant_clicks over seven runs, 0.92-0.99 on the other workloads. The
// sum of medians falls short of the median of the sum by the skew of the
// layers' distributions (net/http's self time has a p99 forty times its
// median), not by a layer left out, which would cost far more; so the run
// fails only beyond 0.15 and a run-to-run wobble of 0.005 at 0.90 cannot
// fail it.
const SelfSumTolerance = 0.15

// historyWindow and askRecall mirror serving's unexported constants: the
// retrieval query is the centroid of the last 8 clicked tags' embeddings,
// and /ask recalls 10 RQs. TestLeafInputsMatchEngine pins the mirror to the
// engine's observable behaviour.
const (
	historyWindow = 8
	askRecall     = 10
)

// Options configures one traced run.
type Options struct {
	Prepared *prep.Prepared
	World    *wl.World
	Spec     wl.Spec
	Seed     int64
	Duration time.Duration
	Version  string // snapshot version served
}

// Result is a traced run's outcome.
type Result struct {
	Metrics  map[string]float64 // per-layer metrics measured here, by name
	Requests int
	Failed   int
	Errs     []string
	TierAP50 float64 // microseconds
	Rec      *Recorder
}

// stack is one in-process serving stack.
type stack struct {
	engine *serving.Engine
	server *serving.Server
	reg    *obs.Registry // nil without telemetry
}

func newStack(b *serving.ModelBundle, telemetry bool) *stack {
	rs := serving.NewReplicaSet(b, 1, 1, store.NewLog(), nil)
	rs.SetRetrieval(serving.DefaultRetrievalConfig())
	st := &stack{engine: rs.Engines()[0], server: serving.NewServer(serving.NewReplicatedABRouter(rs))}
	if telemetry {
		st.reg = obs.NewRegistry()
		st.server.EnableTelemetry(st.reg, obs.NewTracer(64, 256))
	}
	return st
}

// leaves holds what the leaf calls need: the same model, embedding table and
// RQ index the stacks serve, an ANN index built the way serving builds its
// own, and a private event log.
type leaves struct {
	model   *core.Model
	vecs    *mat.Matrix
	retr    ann.Retriever
	sc      *ann.Scratch
	index   *search.Index
	catalog serving.Catalog
	world   *wl.World
	log     *store.Log
	annK    int
	minCat  int
	query   []float64
}

// leafCall is one timed leaf call of a request.
type leafCall struct {
	name       string
	start, end int64
}

// leafInputs are the engine-side inputs of a click's leaf calls, kept so the
// quality samples can reuse them.
type leafInputs struct {
	annIDs    []int // retrieved ids before the tenant filter (nil off the ANN path)
	survivors int
	cands     []int
}

func (l *leaves) centroid(history []int) []float64 {
	q := l.query[:l.vecs.Cols]
	clear(q)
	recent := history
	if len(recent) > historyWindow {
		recent = recent[len(recent)-historyWindow:]
	}
	for _, tag := range recent {
		for j, x := range l.vecs.Row(tag) {
			q[j] += x
		}
	}
	inv := 1 / float64(len(recent))
	for j := range q {
		q[j] *= inv
	}
	return q
}

// click runs the leaf calls of one /click in the engine's order, each inside
// timed (which measures it by clock or by allocation counter), and returns
// the inputs it derived. What the engine does between the calls — the
// centroid, the tenant filter, the phrase join — stays outside timed: that
// is the engine's self time.
func (l *leaves) click(r *wl.Req, history []int, timed func(name string, fn func())) leafInputs {
	var in leafInputs
	timed(spanAppend, func() {
		l.log.Append(store.Event{Session: r.Session, Tenant: r.Tenant, Kind: store.EventClick, TagID: r.Tag})
	})
	in.cands = l.catalog.TenantTags[r.Tenant]
	if len(in.cands) >= l.minCat {
		q := l.centroid(history)
		var hits []ann.Neighbor
		timed(spanANN, func() { hits = l.retr.SearchInto(l.sc, q, l.annK, -1) })
		var kept []int
		for _, h := range hits {
			in.annIDs = append(in.annIDs, h.ID)
			if l.world.InCatalog(r.Tenant, h.ID) {
				kept = append(kept, h.ID)
			}
		}
		in.survivors = len(kept)
		if len(kept) >= wl.TopK {
			sort.Ints(kept)
			in.cands = kept
		}
	}
	timed(spanScore, func() { l.model.ScoreCandidates(history, in.cands) })
	parts := make([]string, len(history))
	for i, tag := range history {
		parts[i] = l.catalog.TagPhrases[tag]
	}
	query := strings.Join(parts, " ")
	timed(spanSearch, func() { l.index.Search(query, r.Tenant, wl.TopK) })
	return in
}

func (l *leaves) ask(r *wl.Req, timed func(name string, fn func())) {
	timed(spanSearch, func() { l.index.Search(r.Question, r.Tenant, askRecall) })
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// Run builds the stacks, drives the workload's seeded stream through the
// three tiers and the leaf calls from a single goroutine for the given
// duration, and derives the per-layer metrics.
func Run(o Options) (*Result, error) {
	p := o.Prepared
	m := map[string]float64{}

	// Build-time layers, each timed around its public entry point.
	t := time.Now()
	if err := p.Store.Verify(o.Version); err != nil {
		return nil, err
	}
	m["snapshot.verify_ms"] = ms(time.Since(t))
	t = time.Now()
	model, _, err := core.LoadSnapshotVersion(p.Store, o.Version, p.Config.Model)
	if err != nil {
		return nil, err
	}
	m["core.snapshot_load_ms"] = ms(time.Since(t))
	t = time.Now()
	probe := search.NewIndex()
	for _, rq := range p.World.RQs {
		probe.Add(rq.ID, rq.Tenant, rq.Text)
	}
	m["search.build_ms"] = ms(time.Since(t))
	catalog, index := serving.BuildCatalog(p.World, p.Train)
	vecs := model.TagEmbeddings()
	t = time.Now()
	retr := ann.BuildGraph(vecs, ann.DefaultGraphConfig())
	m["ann.build_ms"] = ms(time.Since(t))

	bundle := &serving.ModelBundle{VersionID: o.Version, Catalog: catalog, Index: index, Scorer: model}
	full, bare := newStack(bundle, true), newStack(bundle, false)
	rcfg := serving.DefaultRetrievalConfig()
	lv := &leaves{
		model: model, vecs: vecs, retr: retr, sc: ann.NewScratch(), index: index, catalog: catalog,
		world: o.World, log: store.NewLog(), annK: rcfg.K, minCat: rcfg.MinCatalog,
		query: make([]float64, vecs.Cols),
	}

	// Tier A: the same server behind a real loopback listener.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	srv := &http.Server{Handler: full.server}
	served := make(chan error, 1)
	//lint:ignore nakedgo tier A needs a live accept loop; it ends at srv.Close below and is waited for through served
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		_ = srv.Close() // the only client is this goroutine and it has finished
		<-served
	}()
	conn, err := gen.Dial(ln.Addr().String())
	if err != nil {
		return nil, err
	}
	defer conn.Close()

	stream, err := wl.NewStream(o.Spec, o.World, o.Seed, 0)
	if err != nil {
		return nil, err
	}
	tr := &tracer{
		full: full, bare: bare, lv: lv, conn: conn,
		check: wl.NewChecker(o.World), rec: &Recorder{}, origin: time.Now(),
	}
	before := full.engine.RetrievalStats()
	for start := time.Now(); time.Since(start) < o.Duration; {
		tr.request(stream.Next())
	}
	after := full.engine.RetrievalStats()
	if err := tr.checkMirror(model.Name()); err != nil {
		return nil, err
	}

	tr.layerMetrics(m)
	pathMetrics(m, before, after, tr.answers)
	if err := tr.allocPass(m, o); err != nil {
		return nil, err
	}
	res := &Result{
		Metrics: m, Requests: len(tr.class), Failed: tr.failed, Errs: tr.errs,
		TierAP50: stat.Percentile(stat.Sorted(tr.tierA), 0.5), Rec: tr.rec,
	}
	return res, nil
}

// checkMirror compares the candidate lists the leaf calls were given with the
// ones the engine itself ranked, which its telemetry histogram counts: if
// the mirror of the engine's logic in leaves.click has drifted from the
// engine, the leaf timings describe calls the engine no longer makes.
func (t *tracer) checkMirror(bucket string) error {
	h := t.full.reg.Histogram("intellitag_retrieval_candidates", nil, "bucket", bucket)
	// Three tiers computed every panel on the one engine.
	if got, want := h.Count(), int64(3*t.panels); got != want {
		return fmt.Errorf("trace: the engine computed %d panels, the mirror expected %d", got, want)
	}
	if got, want := h.Sum(), 3*t.panelCands; got != want {
		return fmt.Errorf("trace: the engine ranked %.0f candidates, the leaf calls were given %.0f: the mirror in leaves.click has drifted from serving", got, want)
	}
	return nil
}

// tracer is the state of one traced run.
type tracer struct {
	full, bare *stack
	lv         *leaves
	conn       *gen.Conn
	check      *wl.Checker
	rec        *Recorder
	origin     time.Time

	history []int // the current session's clicks (sessions run one at a time)
	body    []byte
	calls   []leafCall

	class   []uint8   // per request
	tierA   []float64 // per request, microseconds
	tierB   []float64
	bareB   []float64
	answers int // /click + /recommend requests: every one gets a panel
	failed  int
	errs    []string

	panels     int     // panels the engine computes per tier: clicks and cold starts
	panelCands float64 // candidates ranked for them

	annSeen, scoreSeen int
	recallSum          float64
	recallN            int
	survivorSum        float64
	candSum            float64
	exactSum           float64
	exactN             int
}

func (t *tracer) clock() int64 { return int64(time.Since(t.origin)) }

// timeLeaf times one leaf call of the current request by the trace clock.
func (t *tracer) timeLeaf(name string, fn func()) {
	start := t.clock()
	fn()
	t.calls = append(t.calls, leafCall{name, start, t.clock()})
}

func (t *tracer) fail(err error) {
	t.failed++
	if len(t.errs) < 5 {
		t.errs = append(t.errs, err.Error())
	}
}

func classify(r *wl.Req) uint8 {
	switch {
	case r.Kind == wl.Click:
		return classClick
	case r.Kind == wl.Ask:
		return classAsk
	case r.First:
		return classRecMiss // a session's opening panel: cold start, computed
	}
	return classRecHit // every later /recommend follows a computed panel
}

func inNamespace(r *wl.Req, ns int) *wl.Req {
	c := *r
	c.Session += ns
	return &c
}

// engineCall is tier C: the request as a direct Engine call.
func engineCall(e *serving.Engine, r *wl.Req) []serving.ScoredTag {
	ctx := context.Background()
	switch r.Kind {
	case wl.Click:
		recs, _ := e.Click(ctx, r.Tenant, r.Session, r.Tag, wl.TopK)
		return recs
	case wl.Ask:
		e.Ask(ctx, r.Tenant, r.Session, r.Question)
		return nil
	}
	return e.RecommendTags(ctx, r.Tenant, r.Session, wl.TopK)
}

// handlerCall is tier B: the request through Server.ServeHTTP into a
// recorder. Building the http.Request is not timed.
func (t *tracer) handlerCall(s *stack, r *wl.Req) (start, end int64) {
	t.body = r.AppendBody(t.body[:0])
	hr := httptest.NewRequest(http.MethodPost, r.Path(), bytes.NewReader(t.body))
	rw := httptest.NewRecorder()
	start = t.clock()
	s.server.ServeHTTP(rw, hr)
	end = t.clock()
	if rw.Code != http.StatusOK {
		t.fail(fmt.Errorf("tier B %s: HTTP %d", r.Kind, rw.Code))
	}
	return start, end
}

// request runs one request through every tier. The tiers take turns going
// first, so that none of them always pays for the cold caches.
func (t *tracer) request(r *wl.Req) {
	n := len(t.class)
	cl := classify(r)
	t.class = append(t.class, cl)
	if r.First {
		t.history = t.history[:0]
	}
	if r.Kind == wl.Click {
		t.history = append(t.history, r.Tag)
	}
	if r.Kind != wl.Ask {
		t.answers++
	}

	var aS, aE, bS, bE, cS, cE int64
	var recs []serving.ScoredTag
	var in leafInputs
	t.calls = t.calls[:0]
	const tiers = 5
	for i := 0; i < tiers; i++ {
		switch (n + i) % tiers {
		case 0:
			ra := inNamespace(r, nsA)
			t.body = ra.AppendBody(t.body[:0])
			aS = t.clock()
			status, resp, err := t.conn.Do(ra.Path(), t.body)
			aE = t.clock()
			if err == nil {
				err = t.check.Check(ra, status, resp)
			}
			if err != nil {
				t.fail(fmt.Errorf("tier A: %w", err))
			}
		case 1:
			bS, bE = t.handlerCall(t.full, inNamespace(r, nsB))
		case 2:
			rc := inNamespace(r, nsC)
			cS = t.clock()
			recs = engineCall(t.full.engine, rc)
			cE = t.clock()
		case 3:
			switch r.Kind {
			case wl.Click:
				in = t.lv.click(r, t.history, t.timeLeaf)
			case wl.Ask:
				t.lv.ask(r, t.timeLeaf)
			}
		case 4:
			s, e := t.handlerCall(t.bare, inNamespace(r, nsB))
			t.bareB = append(t.bareB, float64(e-s)/1e3)
		}
	}
	t.tierA = append(t.tierA, float64(aE-aS)/1e3)
	t.tierB = append(t.tierB, float64(bE-bS)/1e3)
	root := t.rec.Add(n, spanHTTP, aS, aE, -1)
	handler := t.rec.Add(n, spanHandler, bS, bE, root)
	engine := t.rec.Add(n, spanEngine, cS, cE, handler)
	for _, c := range t.calls {
		t.rec.Add(n, c.name, c.start, c.end, engine)
	}
	switch cl {
	case classClick:
		t.panels++
		t.panelCands += float64(len(in.cands))
		t.quality(r, recs, in)
	case classRecMiss:
		t.panels++
		t.panelCands += float64(len(t.lv.catalog.TenantTags[r.Tenant]))
	}
}

// Sampling periods of the quality checks, which cost an exhaustive scan each.
const (
	recallEvery = 8
	exactEvery  = 8
)

// quality takes the counts that say how much of the work was useful: ANN
// recall against exact search, the share of retrieved tags the tenant filter
// kept, and whether the served panel equals the exhaustive ranking.
func (t *tracer) quality(r *wl.Req, recs []serving.ScoredTag, in leafInputs) {
	lv := t.lv
	t.candSum += float64(len(in.cands))
	t.scoreSeen++
	if in.annIDs != nil {
		t.survivorSum += float64(in.survivors) / float64(lv.annK)
		if t.annSeen%recallEvery == 0 {
			exact := ann.Exact(lv.vecs, lv.centroid(t.history), lv.annK, -1)
			got := map[int]bool{}
			for _, id := range in.annIDs {
				got[id] = true
			}
			hit := 0
			for _, e := range exact {
				if got[e.ID] {
					hit++
				}
			}
			t.recallSum += float64(hit) / float64(len(exact))
			t.recallN++
		}
		t.annSeen++
	}
	if t.scoreSeen%exactEvery == 0 {
		all := lv.catalog.TenantTags[r.Tenant]
		want := lv.model.Recommend(t.history, all, wl.TopK)
		same := 0
		for _, w := range want {
			for _, g := range recs {
				if g.Tag == w.Tag {
					same++
					break
				}
			}
		}
		if len(want) > 0 {
			t.exactSum += float64(same) / float64(len(want))
			t.exactN++
		}
	}
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// layerMetrics derives the timing metrics from the recorded spans.
func (t *tracer) layerMetrics(m map[string]float64) {
	spans := t.rec.Spans
	self := SelfTimes(spans)
	selfUS := map[string][]float64{} // span name -> self times
	durUS := map[string][]float64{}  // span name -> durations
	var byClass [numClasses]struct { // per request class
		self map[string][]float64
		a    []float64
		c    []float64
	}
	for c := range byClass {
		byClass[c].self = map[string][]float64{}
	}
	for i, s := range spans {
		v := float64(self[i]) / 1e3
		selfUS[s.Name] = append(selfUS[s.Name], v)
		durUS[s.Name] = append(durUS[s.Name], float64(s.Dur())/1e3)
		bc := &byClass[t.class[s.Req]]
		bc.self[s.Name] = append(bc.self[s.Name], v)
		switch s.Name {
		case spanHTTP:
			bc.a = append(bc.a, float64(s.Dur())/1e3)
		case spanEngine:
			bc.c = append(bc.c, float64(s.Dur())/1e3)
		}
	}
	p := func(vals []float64, q float64) float64 { return stat.Percentile(stat.Sorted(vals), q) }
	m["http.self_us_p50"] = p(selfUS[spanHTTP], 0.5)
	m["http.self_us_p99"] = p(selfUS[spanHTTP], 0.99)
	m["serving.handler_self_us_p50"] = p(selfUS[spanHandler], 0.5)
	m["serving.engine_self_us_p50"] = p(selfUS[spanEngine], 0.5)
	m["serving.click_us_p50"] = p(byClass[classClick].c, 0.5)
	m["serving.recommend_hit_us_p50"] = p(byClass[classRecHit].c, 0.5)
	m["serving.recommend_miss_us_p50"] = p(byClass[classRecMiss].c, 0.5)
	m["serving.ask_us_p50"] = p(byClass[classAsk].c, 0.5)
	m["ann.search_us_p50"] = p(durUS[spanANN], 0.5)
	m["core.score_us_p50"] = p(durUS[spanScore], 0.5)
	m["search.query_us_p50"] = p(durUS[spanSearch], 0.5)
	m["store.append_ns_p50"] = p(durUS[spanAppend], 0.5) * 1e3

	// How much of the round trip the layers account for: within a request
	// class, the layers' median self times should add up to the class's
	// median round trip; classes are weighted by their request counts.
	var sumSelf, sumA float64
	for c := range byClass {
		bc := &byClass[c]
		n := float64(len(bc.a))
		if n == 0 {
			continue
		}
		var s float64
		for _, name := range sortedNames(bc.self) {
			// A layer some of the class's requests skip counts by its share.
			s += p(bc.self[name], 0.5) * float64(len(bc.self[name])) / n
		}
		sumSelf += n * s
		sumA += n * p(bc.a, 0.5)
	}
	m["trace.self_sum_frac"] = ratio(sumSelf, sumA)

	m["obs.telemetry_overhead_frac"] = ratio(p(t.tierB, 0.5)-p(t.bareB, 0.5), p(t.bareB, 0.5))
	m["ann.recall_at_64"] = ratio(t.recallSum, float64(t.recallN))
	m["ann.survivor_frac"] = ratio(t.survivorSum, float64(t.annSeen))
	m["core.score_cands_mean"] = ratio(t.candSum, float64(t.scoreSeen))
	m["serving.top5_exact_frac"] = ratio(t.exactSum, float64(t.exactN))
}

func sortedNames(m map[string][]float64) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// pathMetrics turns the engine's retrieval-path counters into shares of the
// panels answered. A panel that took none of the computing paths came from
// the per-session memo.
func pathMetrics(m map[string]float64, before, after serving.RetrievalStats, answers int) {
	// Three tiers answered every panel on the one engine.
	n := float64(3 * answers)
	annN := float64(after.ANN - before.ANN)
	fb := float64(after.Fallback - before.Fallback)
	ex := float64(after.Exhaustive - before.Exhaustive)
	cold := float64(after.ColdStart - before.ColdStart)
	m["serving.path_ann_frac"] = ratio(annN, n)
	m["serving.path_fallback_frac"] = ratio(fb, n)
	m["serving.path_exhaustive_frac"] = ratio(ex, n)
	m["serving.path_coldstart_frac"] = ratio(cold, n)
	m["serving.memo_hit_frac"] = ratio(n-annN-fb-ex-cold, n)
}

// allocRequests is how many of the stream's first requests the allocation
// pass replays.
const allocRequests = 400

// allocCount brackets fn with exact heap counters. ReadMemStats stops the
// world, which is why allocations are counted in a pass of their own and not
// inside the timed loop.
func allocCount(fn func()) (objects, bytes float64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs - a.Mallocs), float64(b.TotalAlloc - a.TotalAlloc)
}

// allocPass replays the head of the same seeded stream in a session
// namespace of its own and counts heap allocations per /click in the engine
// and per leaf call.
func (t *tracer) allocPass(m map[string]float64, o Options) error {
	stream, err := wl.NewStream(o.Spec, o.World, o.Seed, 0)
	if err != nil {
		return err
	}
	var clicks, clickObj, clickBytes float64
	leafObj := map[string]float64{}
	leafN := map[string]float64{}
	var history []int
	for i := 0; i < allocRequests; i++ {
		r := stream.Next()
		if r.First {
			history = history[:0]
		}
		rr := inNamespace(r, nsAlloc)
		if r.Kind != wl.Click {
			engineCall(t.full.engine, rr)
			continue
		}
		history = append(history, r.Tag)
		obj, by := allocCount(func() { engineCall(t.full.engine, rr) })
		clicks++
		clickObj += obj
		clickBytes += by
		t.lv.click(r, history, func(name string, fn func()) {
			obj, _ := allocCount(fn)
			leafObj[name] += obj
			leafN[name]++
		})
	}
	m["serving.allocs_per_click"] = ratio(clickObj, clicks)
	m["serving.bytes_per_click"] = ratio(clickBytes, clicks)
	m["ann.search_allocs"] = ratio(leafObj[spanANN], leafN[spanANN])
	m["core.score_allocs"] = ratio(leafObj[spanScore], leafN[spanScore])
	m["search.query_allocs"] = ratio(leafObj[spanSearch], leafN[spanSearch])
	return nil
}
