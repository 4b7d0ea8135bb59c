// Package serving implements the online half of the IntelliTag system
// (Section V): the model server logic (Q&A answering, tag recommendation,
// predicted questions, session state, cold-start fallbacks), versioned model
// hot swap with N-replica sharding, an A/B bucket router for online
// experiments, an HTTP JSON API, and the simulated user population that
// stands in for live traffic when reproducing the paper's online CTR / HIR /
// latency results.
package serving

import (
	"context"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"intellitag/internal/search"
	"intellitag/internal/store"
)

// Scorer ranks candidate next tags given a click history. core.Model and
// every baseline satisfy it.
type Scorer interface {
	ScoreCandidates(history []int, candidates []int) []float64
	Name() string
}

// Catalog is the static serving data uploaded by the offline pipeline: tag
// phrases, per-tenant tag sets, per-tag click popularity (cold-start
// fallback) and the RQ answer table.
type Catalog struct {
	TagPhrases []string       // phrase per tag id
	TenantTags map[int][]int  // tenant -> tag ids (asc-derived)
	Popularity []float64      // global click counts per tag
	RQAnswers  map[int]string // RQ id -> answer text
}

// ScoredTag is one recommendation.
type ScoredTag struct {
	Tag    int     `json:"tag"`
	Phrase string  `json:"phrase"`
	Score  float64 `json:"score"`
}

// PredictedQuestion is one retrieved RQ shown after a click.
type PredictedQuestion struct {
	RQ       int     `json:"rq"`
	Question string  `json:"question"`
	Answer   string  `json:"answer"`
	Score    float64 `json:"score"`
}

// QuestionMatcher picks the best RQ from a recall set — the role of the
// uploaded RoBERTa model in Fig. 4. qamatch.Index satisfies it.
type QuestionMatcher interface {
	// Best returns the best candidate id within subset and its score, or
	// (-1, 0) when the subset is empty.
	Best(question string, subset map[int]bool) (int, float64)
}

// sessionShardCount spreads session state over independently locked maps so
// concurrent requests for different sessions never contend on one mutex.
const sessionShardCount = 16

// recEntry is a memoized RecommendTags result for one session. The serving
// inputs are the session history plus the active version's catalog and
// scorer, so the ranked list only changes when the history mutates or the
// model version flips; the entry records the generation of the version it
// was computed on and a hit requires an exact match, which is what makes a
// hot swap invalidate every memo without touching the shards. It holds the
// generation number, not the version: an idle session's stale entry must
// not keep a retired model, index and scorer pool reachable.
type recEntry struct {
	gen       uint64
	tenant, k int
	recs      []ScoredTag
}

// sessionShard is one lock-striped slice of the session table.
type sessionShard struct {
	mu   sync.Mutex
	ver  uint64        // bumped on every history mutation in this shard
	m    map[int][]int // session id -> click history
	recs map[int]recEntry
}

// latencyCap bounds the latency sample: the old unbounded slice grew with
// every request for the life of the server. The ring keeps the most recent
// samples, which is what the percentile reports read anyway.
const latencyCap = 4096

// latencyRing is a fixed-capacity concurrent ring buffer of request
// latencies.
type latencyRing struct {
	mu   sync.Mutex
	buf  [latencyCap]time.Duration
	next int
	size int
}

func (r *latencyRing) record(d time.Duration) {
	r.mu.Lock()
	r.buf[r.next] = d
	r.next = (r.next + 1) % latencyCap
	if r.size < latencyCap {
		r.size++
	}
	r.mu.Unlock()
}

// snapshot returns the retained samples oldest-first.
func (r *latencyRing) snapshot() []time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.size == 0 {
		return nil
	}
	out := make([]time.Duration, 0, r.size)
	start := (r.next - r.size + latencyCap) % latencyCap
	for i := 0; i < r.size; i++ {
		out = append(out, r.buf[(start+i)%latencyCap])
	}
	return out
}

func (r *latencyRing) reset() {
	r.mu.Lock()
	r.next = 0
	r.size = 0
	r.mu.Unlock()
}

// Engine is the model-server logic for one replica. It is safe for
// concurrent use: session state is sharded, latencies go to a fixed ring,
// scorers — whose forward passes cache intermediates and therefore must not
// run two requests at once — are checked out of a pool, and all
// model-dependent state (scorer, index, catalog, matcher, scorer pool) lives
// behind one atomically swappable modelVersion pointer. A request loads the
// version once on entry and uses only that pointer, so Swap can flip the
// engine to a new model mid-traffic with zero dropped requests: in-flight
// requests finish on the version they started with, new requests see the new
// version, and per-session memos are version-keyed so nothing leaks across.
// SetMatcher and SetWorkers are setup-time calls, not for use concurrently
// with requests.
type Engine struct {
	cur atomic.Pointer[modelVersion]

	log *store.Log
	day func() int // logical clock for log events

	replica int // index within a ReplicaSet; 0 for solo engines
	workers int // scorer pool width for versions built by Swap

	shards [sessionShardCount]sessionShard

	lat latencyRing

	swaps        atomic.Int64
	lastSwapUnix atomic.Int64
	undrained    atomic.Bool // last retired version missed the drain deadline

	// retrieval is the ANN candidate-retrieval config applied to versions
	// installed by Swap (setup-time; see SetRetrieval). retrievalPaths counts
	// recommendation computations by serving path and annBuilds the ANN
	// indexes built for installed versions, both for /healthz.
	retrieval      RetrievalConfig
	retrievalPaths [numRetrievalPaths]atomic.Int64
	annBuilds      atomic.Int64

	// tel is the optional telemetry sink (SetTelemetry). When nil the engine
	// pays one pointer comparison per instrumented site and nothing else.
	tel *engineTelemetry
}

// NewEngine assembles a single-replica engine serving an unversioned model —
// the bundle-free construction path used by tests, benchmarks and callers
// that never hot-swap. The search index must contain the RQ documents (doc
// id = RQ id, tenant field set). A nil log disables event recording; day
// supplies the logical day stamp (nil means day 0).
func NewEngine(catalog Catalog, index *search.Index, scorer Scorer, log *store.Log, day func() int) *Engine {
	b := &ModelBundle{Catalog: catalog, Index: index, Scorer: scorer}
	return newEngineAt(newModelVersion(b, 1), 0, 1, log, day)
}

// newEngineAt assembles a replica around an existing (possibly shared)
// model version.
func newEngineAt(v *modelVersion, replica, workers int, log *store.Log, day func() int) *Engine {
	if day == nil {
		day = func() int { return 0 }
	}
	e := &Engine{log: log, day: day, replica: replica, workers: workers}
	for i := range e.shards {
		e.shards[i].m = map[int][]int{}
		e.shards[i].recs = map[int]recEntry{}
	}
	e.cur.Store(v)
	return e
}

// acquire pins the active version for one request. Between the pointer load
// and the counter increment a swap may retire the version; that request
// still completes correctly — retired versions stay fully usable, drain is
// bounded, and nothing is freed eagerly.
func (e *Engine) acquire() *modelVersion {
	v := e.cur.Load()
	v.inflight.Add(1)
	return v
}

func (e *Engine) release(v *modelVersion) { v.inflight.Add(-1) }

// SetWorkers sizes the scorer pool for n-way concurrent scoring (<= 0
// selects all CPUs). The width also applies to versions installed by later
// swaps. Call during setup, before serving traffic.
func (e *Engine) SetWorkers(n int) {
	e.workers = n
	e.cur.Load().resizePool(n)
}

// shard returns the lock stripe owning a session id.
func (e *Engine) shard(session int) *sessionShard {
	i := session % sessionShardCount
	if i < 0 {
		i += sessionShardCount
	}
	return &e.shards[i]
}

// ScorerName reports the active version's model name.
func (e *Engine) ScorerName() string { return e.cur.Load().scorer.Name() }

// Catalog returns the active version's serving catalog.
func (e *Engine) Catalog() Catalog { return e.cur.Load().catalog }

// History returns a copy of a session's click history.
func (e *Engine) History(session int) []int {
	sh := e.shard(session)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return append([]int(nil), sh.m[session]...)
}

// RecommendTags returns the top-k tags for a session. With no click history
// it falls back to the tenant's most frequently clicked tags (the paper's
// cold-start strategy); otherwise the model ranks the tenant's tags given
// the history. Results are memoized per session until the next click or
// version swap, so only the first request after a history change pays for
// model scoring. Latency of the full call is recorded.
func (e *Engine) RecommendTags(ctx context.Context, tenant, session, k int) []ScoredTag {
	v := e.acquire()
	defer e.release(v)
	return e.recommendTags(ctx, v, tenant, session, k)
}

// recommendTags is RecommendTags against an already-pinned version (Click
// reuses it so one user turn stays on a single version end to end).
func (e *Engine) recommendTags(ctx context.Context, v *modelVersion, tenant, session, k int) []ScoredTag {
	start := time.Now()
	defer e.recordLatency(start)
	defer e.observeOp(opRecommend, start)
	ctx, span := e.startSpan(ctx, "recommend")
	defer span.End()

	candidates := v.catalog.TenantTags[tenant]
	if len(candidates) == 0 {
		return nil
	}
	sh := e.shard(session)
	sh.mu.Lock()
	var (
		memo    []ScoredTag
		hit     bool
		ver     uint64
		history []int
	)
	if c, ok := sh.recs[session]; ok && c.gen == v.gen && c.tenant == tenant && c.k == k {
		hit = true
		memo = append([]ScoredTag(nil), c.recs...)
	} else {
		ver = sh.ver
		history = append([]int(nil), sh.m[session]...)
	}
	sh.mu.Unlock()
	if hit {
		return memo
	}

	var scores []float64
	if len(history) == 0 {
		// Cold start: popularity ranking needs every candidate's count anyway,
		// so retrieval has nothing to save.
		e.noteRetrievalPath(pathColdStart, len(candidates))
		scores = make([]float64, len(candidates))
		for i, c := range candidates {
			scores[i] = v.catalog.Popularity[c]
		}
	} else {
		// Retrieve-then-rank: when the version carries an ANN index and the
		// tenant catalog is large enough to be worth it, retrieve ~K nearest
		// tags of the recent-history centroid and rank only those. Any miss —
		// no retriever, small catalog, too few tenant survivors — scores the
		// full candidate list exactly as before.
		if tr := v.tags; tr != nil && len(candidates) >= tr.cfg.MinCatalog {
			if got := tr.retrieve(history, tenant, k); got != nil {
				e.noteRetrievalPath(pathANN, len(got))
				e.maybeSampleRecall(tr, history, tenant, got)
				candidates = got
			} else {
				e.noteRetrievalPath(pathFallback, len(candidates))
			}
		} else {
			e.noteRetrievalPath(pathExhaustive, len(candidates))
		}
		scores = e.scoreCandidates(ctx, v, history, candidates)
	}
	out := make([]ScoredTag, len(candidates))
	for i, c := range candidates {
		out[i] = ScoredTag{Tag: c, Phrase: v.catalog.TagPhrases[c], Score: scores[i]}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Tag < out[j].Tag
	})
	if len(out) > k {
		out = out[:k]
	}
	// Store only if no history in this shard mutated while we scored — a
	// concurrent Click may have invalidated the entry we are about to write.
	// The entry remembers its version's generation, so a memo computed on a
	// retired version can never answer a request on the new one.
	sh.mu.Lock()
	if sh.ver == ver {
		sh.recs[session] = recEntry{gen: v.gen, tenant: tenant, k: k, recs: append([]ScoredTag(nil), out...)}
	}
	sh.mu.Unlock()
	return out
}

// Click records a tag click, returns the next recommendations and the
// predicted questions for the accumulated clicked-tag query (the middle
// panel of the paper's Fig. 1). The whole turn — history update,
// re-recommendation, question retrieval — runs on one pinned version.
func (e *Engine) Click(ctx context.Context, tenant, session, tag, k int) ([]ScoredTag, []PredictedQuestion) {
	v := e.acquire()
	defer e.release(v)
	start := time.Now()
	defer e.observeOp(opClick, start)
	ctx, span := e.startSpan(ctx, "click")
	defer span.End()

	sh := e.shard(session)
	sh.mu.Lock()
	sh.m[session] = append(sh.m[session], tag)
	sh.ver++
	delete(sh.recs, session)
	history := append([]int(nil), sh.m[session]...)
	e.noteShardSize(sh)
	sh.mu.Unlock()
	if e.log != nil {
		e.log.Append(store.Event{Day: e.day(), Session: session, Tenant: tenant, Kind: store.EventClick, TagID: tag})
	}

	recs := e.recommendTags(ctx, v, tenant, session, k)

	// Query = concatenated phrases of all clicked tags in the session.
	var parts []string
	for _, t := range history {
		parts = append(parts, v.catalog.TagPhrases[t])
	}
	questions := e.predictQuestions(ctx, v, tenant, strings.Join(parts, " "), k)
	return recs, questions
}

// PredictQuestions retrieves the best-matching RQs for a query within a
// tenant.
func (e *Engine) PredictQuestions(ctx context.Context, tenant int, query string, k int) []PredictedQuestion {
	v := e.acquire()
	defer e.release(v)
	return e.predictQuestions(ctx, v, tenant, query, k)
}

func (e *Engine) predictQuestions(ctx context.Context, v *modelVersion, tenant int, query string, k int) []PredictedQuestion {
	_, span := e.startSpan(ctx, "retrieve")
	defer span.End()
	hits := v.index.Search(query, tenant, k)
	out := make([]PredictedQuestion, 0, len(hits))
	for _, h := range hits {
		doc, ok := v.index.Get(h.ID)
		if !ok {
			continue
		}
		out = append(out, PredictedQuestion{
			RQ:       h.ID,
			Question: doc.Text,
			Answer:   v.catalog.RQAnswers[h.ID],
			Score:    h.Score,
		})
	}
	return out
}

// SetMatcher installs a question matcher that reranks the Ask recall set
// (the deployment's model upload) on the active version. A nil matcher keeps
// BM25 order. Call during setup; versions installed by Swap carry their own
// matcher in the bundle.
func (e *Engine) SetMatcher(m QuestionMatcher) { e.cur.Load().matcher = m } //lint:ignore versionpin documented setup-time mutation before the engine serves traffic

// Ask answers a typed question: retrieve the RQ recall set for the tenant,
// pick the best match (via the uploaded matcher model when present, BM25
// order otherwise) and return its answer. ok is false when nothing matches
// (the caller may escalate to manual service).
func (e *Engine) Ask(ctx context.Context, tenant, session int, question string) (PredictedQuestion, bool) {
	v := e.acquire()
	defer e.release(v)
	start := time.Now()
	defer e.recordLatency(start)
	defer e.observeOp(opAsk, start)
	ctx, span := e.startSpan(ctx, "ask")
	defer span.End()
	const recallSize = 10
	_, rspan := e.startSpan(ctx, "retrieve")
	hits := v.index.Search(question, tenant, recallSize)
	rspan.End()
	if len(hits) == 0 {
		return PredictedQuestion{}, false
	}
	bestID, bestScore := hits[0].ID, hits[0].Score
	if v.matcher != nil {
		subset := make(map[int]bool, len(hits))
		for _, h := range hits {
			subset[h.ID] = true
		}
		_, mspan := e.startSpan(ctx, "match")
		if id, score := v.matcher.Best(question, subset); id >= 0 {
			bestID, bestScore = id, score
		}
		mspan.End()
	}
	doc, _ := v.index.Get(bestID)
	if e.log != nil {
		e.log.Append(store.Event{Day: e.day(), Session: session, Tenant: tenant, Kind: store.EventQuestion, RQID: bestID})
	}
	return PredictedQuestion{
		RQ:       bestID,
		Question: doc.Text,
		Answer:   v.catalog.RQAnswers[bestID],
		Score:    bestScore,
	}, true
}

// Escalate records a human-intervention event for HIR accounting.
func (e *Engine) Escalate(tenant, session int) {
	if e.log != nil {
		e.log.Append(store.Event{Day: e.day(), Session: session, Tenant: tenant, Kind: store.EventHuman})
	}
	if e.tel != nil {
		e.tel.escalations.Inc()
		e.updateHIR()
	}
}

// EndSession drops a session's state.
func (e *Engine) EndSession(session int) {
	sh := e.shard(session)
	sh.mu.Lock()
	delete(sh.m, session)
	delete(sh.recs, session)
	sh.ver++
	e.noteShardSize(sh)
	sh.mu.Unlock()
	if e.tel != nil {
		e.tel.sessions.Inc()
		e.updateHIR()
	}
}

func (e *Engine) recordLatency(start time.Time) {
	e.lat.record(time.Since(start))
}

// Latencies returns a copy of the retained request latencies, oldest first
// (the ring keeps the most recent latencyCap samples).
func (e *Engine) Latencies() []time.Duration {
	return e.lat.snapshot()
}

// ResetLatencies clears the latency sample.
func (e *Engine) ResetLatencies() {
	e.lat.reset()
}

// minShardSize is the smallest candidate slice worth a goroutine of its own;
// below it the fan-out overhead beats the scoring work.
const minShardSize = 64

// scoreCandidates checks a scorer out of the version's pool and scores the
// candidate list, splitting it across additional immediately-available
// scorers when it is large. Scores are written into fixed per-shard slots,
// so the result is identical however many scorers happened to be free.
func (e *Engine) scoreCandidates(ctx context.Context, v *modelVersion, history, candidates []int) []float64 {
	_, span := e.startSpan(ctx, "score")
	defer span.End()
	want := len(candidates) / minShardSize
	if want < 1 {
		want = 1
	}
	scorers := checkoutScorers(v.scorers, want)
	defer func() {
		for _, s := range scorers {
			v.scorers <- s
		}
	}()
	if len(scorers) == 1 {
		return scorers[0].ScoreCandidates(history, candidates)
	}
	scores := make([]float64, len(candidates))
	chunk := (len(candidates) + len(scorers) - 1) / len(scorers)
	var wg sync.WaitGroup
	for w := 0; w < len(scorers); w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > len(candidates) {
			hi = len(candidates)
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(s Scorer, lo, hi int) {
			defer wg.Done()
			copy(scores[lo:hi], s.ScoreCandidates(history, candidates[lo:hi]))
		}(scorers[w], lo, hi)
	}
	wg.Wait()
	return scores
}

// checkoutScorers blocks for one scorer, then opportunistically grabs up to
// max-1 more without blocking — never waiting on scorers held by other
// requests, which keeps the pool deadlock-free.
func checkoutScorers(pool chan Scorer, max int) []Scorer {
	out := []Scorer{<-pool}
	for len(out) < max {
		select {
		case s := <-pool:
			out = append(out, s)
		default:
			return out
		}
	}
	return out
}
