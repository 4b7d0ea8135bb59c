package serving

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"intellitag/internal/mat"
	"intellitag/internal/obs"
	"intellitag/internal/search"
)

// vecScorer ranks candidates by cosine similarity between the centroid of the
// recent click history and each candidate's embedding — the same geometry the
// ANN retriever searches, so with a well-separated embedding space the
// retrieve-then-rank output must match the exhaustive ranking exactly. It
// exposes TagEmbeddings, making it retrieval-capable like a frozen core.Model.
type vecScorer struct {
	name string
	emb  *mat.Matrix
}

func (s vecScorer) ScoreCandidates(history, candidates []int) []float64 {
	q := make([]float64, s.emb.Cols)
	recent := history
	if len(recent) > historyWindow {
		recent = recent[len(recent)-historyWindow:]
	}
	n := 0
	for _, tag := range recent {
		if tag < 0 || tag >= s.emb.Rows {
			continue
		}
		for j, x := range s.emb.Row(tag) {
			q[j] += x
		}
		n++
	}
	if n > 0 {
		for j := range q {
			q[j] /= float64(n)
		}
	}
	out := make([]float64, len(candidates))
	for i, c := range candidates {
		out[i] = mat.CosineSim(q, s.emb.Row(c))
	}
	return out
}
func (s vecScorer) Name() string               { return s.name }
func (s vecScorer) TagEmbeddings() *mat.Matrix { return s.emb }

// clusterEmb builds `clusters` well-separated unit-ish clusters of `per`
// embeddings each (row id = tag id), deterministic in seed.
func clusterEmb(clusters, per, dim int, seed int64) *mat.Matrix {
	g := mat.NewRNG(seed)
	centers := mat.New(clusters, dim)
	g.Normal(centers, 1)
	out := mat.New(clusters*per, dim)
	for c := 0; c < clusters; c++ {
		for i := 0; i < per; i++ {
			row := out.Row(c*per + i)
			for j, x := range centers.Row(c) {
				row[j] = x + 0.05*g.NormFloat64()
			}
		}
	}
	return out
}

// retrievalFixture assembles a catalog + retrieval-capable scorer over nTags
// clustered embeddings. tenants maps tenant id -> owned tag ids.
func retrievalFixture(clusters, per, dim int, seed int64, tenants map[int][]int) (Catalog, vecScorer) {
	emb := clusterEmb(clusters, per, dim, seed)
	n := emb.Rows
	cat := Catalog{
		TagPhrases: make([]string, n),
		TenantTags: tenants,
		Popularity: make([]float64, n),
		RQAnswers:  map[int]string{},
	}
	for i := 0; i < n; i++ {
		cat.TagPhrases[i] = fmt.Sprintf("tag-%d", i)
		cat.Popularity[i] = float64(n - i)
	}
	return cat, vecScorer{name: "vec", emb: emb}
}

func allTags(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// TestRetrievalANNPathMatchesExhaustive pins the tentpole's correctness bar:
// on a well-separated embedding space the ANN-served ranking is identical to
// the exhaustive one, and the path counters prove retrieval actually ran.
func TestRetrievalANNPathMatchesExhaustive(t *testing.T) {
	tenants := map[int][]int{0: allTags(512)}
	cat, scorer := retrievalFixture(32, 16, 12, 7, tenants)
	annE := NewEngine(cat, search.NewIndex(), scorer, nil, nil)
	annE.SetRetrieval(RetrievalConfig{Enabled: true, K: 32, MinCatalog: 1})
	exhE := NewEngine(cat, search.NewIndex(), scorer, nil, nil)

	const k = 5
	for session := 0; session < 8; session++ {
		seed := (session * 67) % 512
		annE.Click(ctx, 0, session, seed, k)
		exhE.Click(ctx, 0, session, seed, k)
		got := annE.RecommendTags(ctx, 0, session, k)
		want := exhE.RecommendTags(ctx, 0, session, k)
		if len(got) != k {
			t.Fatalf("session %d: %d recs, want %d", session, len(got), k)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("session %d rank %d: ann %+v != exhaustive %+v", session, i, got[i], want[i])
			}
		}
	}
	st := annE.RetrievalStats()
	if !st.Enabled || st.Backend != "hnsw" || st.IndexSize != 512 {
		t.Fatalf("stats identity: %+v", st)
	}
	if st.ANN == 0 {
		t.Fatalf("ANN path never taken: %+v", st)
	}
	if ex := exhE.RetrievalStats(); ex.Enabled || ex.ANN != 0 {
		t.Fatalf("exhaustive engine claims retrieval: %+v", ex)
	}
}

// TestRetrievalLSHBackend exercises the second backend end to end.
func TestRetrievalLSHBackend(t *testing.T) {
	cat, scorer := retrievalFixture(16, 16, 12, 11, map[int][]int{0: allTags(256)})
	e := NewEngine(cat, search.NewIndex(), scorer, nil, nil)
	e.SetRetrieval(RetrievalConfig{Enabled: true, K: 48, Backend: "lsh", MinCatalog: 1})
	e.Click(ctx, 0, 1, 40, 5)
	if recs := e.RecommendTags(ctx, 0, 1, 5); len(recs) != 5 {
		t.Fatalf("lsh-backed recommend returned %d recs", len(recs))
	}
	if st := e.RetrievalStats(); st.Backend != "lsh" || st.ANN == 0 {
		t.Fatalf("lsh backend not exercised: %+v", st)
	}
}

// TestRetrievalFallbackPaths drives every non-ANN branch: cold start, small
// catalog, and a tenant whose tags are globally far from the query centroid
// (too few survivors after tenant filtering).
func TestRetrievalFallbackPaths(t *testing.T) {
	// Tenant 0 owns cluster 0..7 (ids 0..127); tenant 1 owns clusters 8..15
	// (ids 128..255); tenant 2 owns a catalog below MinCatalog.
	tenants := map[int][]int{
		0: allTags(128),
		1: allTags(256)[128:],
		2: allTags(8),
	}
	cat, scorer := retrievalFixture(16, 16, 12, 13, tenants)
	e := NewEngine(cat, search.NewIndex(), scorer, nil, nil)
	e.SetRetrieval(RetrievalConfig{Enabled: true, K: 16, MinCatalog: 16})

	// Cold start: no history, popularity path.
	if recs := e.RecommendTags(ctx, 0, 100, 5); len(recs) != 5 {
		t.Fatalf("cold start returned %d recs", len(recs))
	}
	if st := e.RetrievalStats(); st.ColdStart != 1 {
		t.Fatalf("cold start not counted: %+v", st)
	}

	// Small catalog: tenant 2 has 8 tags < MinCatalog 16.
	e.Click(ctx, 2, 200, 3, 5)
	if st := e.RetrievalStats(); st.Exhaustive == 0 {
		t.Fatalf("small catalog not exhaustive: %+v", st)
	}

	// Sparse tenant: history sits in tenant 0's clusters, so the global
	// top-16 neighbors are tenant-0 tags and tenant 1 keeps too few.
	e.Click(ctx, 1, 300, 5, 5) // tag 5 belongs to cluster 0
	recs := e.RecommendTags(ctx, 1, 300, 5)
	if len(recs) != 5 {
		t.Fatalf("fallback returned %d recs", len(recs))
	}
	for _, r := range recs {
		if r.Tag < 128 {
			t.Fatalf("fallback leaked tag %d outside tenant 1", r.Tag)
		}
	}
	if st := e.RetrievalStats(); st.Fallback == 0 {
		t.Fatalf("sparse tenant did not fall back: %+v", st)
	}
}

// TestSwapRebuildsRetrieverAndInvalidatesMemo pins the memo x swap x index
// interaction: a hot swap must replace the ANN index along with the model,
// and a recommendation memoized against the old version (and its old index)
// must never answer on the new one.
func TestSwapRebuildsRetrieverAndInvalidatesMemo(t *testing.T) {
	tenants := map[int][]int{0: allTags(256)}
	cat, scorer := retrievalFixture(16, 16, 12, 17, tenants)
	bundleA := &ModelBundle{VersionID: "v0001-aaaaaaaa", Catalog: cat, Index: search.NewIndex(), Scorer: scorer}
	e := NewEngine(cat, search.NewIndex(), scorer, nil, nil)
	e.SetRetrieval(RetrievalConfig{Enabled: true, K: 32, MinCatalog: 1})
	e.Swap(bundleA)
	oldTR := e.cur.Load().tags
	if oldTR == nil {
		t.Fatal("swap did not attach a retriever")
	}

	const tenant, session, k = 0, 42, 5
	e.Click(ctx, tenant, session, 33, k)
	before := e.RecommendTags(ctx, tenant, session, k) // memoized on bundle A
	if again := e.RecommendTags(ctx, tenant, session, k); again[0] != before[0] {
		t.Fatal("same-version memo unstable")
	}

	// Bundle B: different embedding geometry, same catalog. The swap must
	// rebuild the index (distinct retriever) and recompute recommendations.
	_, scorerB := retrievalFixture(16, 16, 12, 999, tenants)
	e.Swap(&ModelBundle{VersionID: "v0002-bbbbbbbb", Catalog: cat, Index: search.NewIndex(), Scorer: scorerB})
	newTR := e.cur.Load().tags
	if newTR == nil || newTR == oldTR || newTR.index == oldTR.index {
		t.Fatalf("swap kept the old retriever or index: old=%p new=%p", oldTR, newTR)
	}
	after := e.RecommendTags(ctx, tenant, session, k)
	if len(after) != k {
		t.Fatalf("post-swap recommend returned %d recs", len(after))
	}
	same := true
	for i := range after {
		if after[i] != before[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatalf("post-swap ranking identical to pre-swap memo — stale entry served: %+v", after)
	}

	// A bundle without an embedding table downgrades to exhaustive serving.
	e.Swap(&ModelBundle{VersionID: "v0003-cccccccc", Catalog: cat, Index: search.NewIndex(),
		Scorer: tableScorer{name: "table", table: cat.Popularity}})
	if e.cur.Load().tags != nil {
		t.Fatal("retriever attached to a scorer without embeddings")
	}
	if recs := e.RecommendTags(ctx, tenant, session, k); len(recs) != k {
		t.Fatalf("exhaustive downgrade returned %d recs", len(recs))
	}
}

// TestRollingSwapUnderLoadWithRetrieval is the -race gate for the tentpole:
// sustained traffic against a 3-replica set with ANN retrieval enabled while
// versions (and their indexes) roll. Zero requests may fail, the replicas
// must converge, and the ANN path must actually have served under fire.
func TestRollingSwapUnderLoadWithRetrieval(t *testing.T) {
	tenants := map[int][]int{0: allTags(256)}
	cat, scorer := retrievalFixture(16, 16, 12, 19, tenants)
	mk := func(id string, seed int64) *ModelBundle {
		_, s := retrievalFixture(16, 16, 12, seed, tenants)
		s.name = scorer.name
		return &ModelBundle{VersionID: id, Catalog: cat, Index: search.NewIndex(), Scorer: s}
	}
	rs := NewReplicaSet(mk("v0000-seedseed", 19), 3, 1, nil, nil)
	rs.SetRetrieval(RetrievalConfig{Enabled: true, K: 32, MinCatalog: 1})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var failed atomic.Int64
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			session := w * 100_000
			for {
				select {
				case <-stop:
					return
				default:
				}
				session++
				e := rs.Pick(session)
				recs, _ := e.Click(ctx, 0, session, session%256, 5)
				if len(recs) == 0 {
					failed.Add(1)
				}
				if again := e.RecommendTags(ctx, 0, session, 5); len(again) == 0 {
					failed.Add(1)
				}
				e.EndSession(session)
			}
		}(w)
	}

	const rolls = 4
	for i := 1; i <= rolls; i++ {
		rs.RollingSwap(mk(fmt.Sprintf("v000%d-aaaaaaaa", i), int64(100+i)), time.Millisecond)
	}
	close(stop)
	wg.Wait()

	if failed.Load() != 0 {
		t.Fatalf("%d requests failed during swaps with retrieval on", failed.Load())
	}
	var ann int64
	for _, vi := range rs.Versions() {
		if vi.Swaps != rolls || !vi.Drained {
			t.Fatalf("replica state after rolls: %+v", vi)
		}
	}
	for _, e := range rs.Engines() {
		st := e.RetrievalStats()
		if !st.Enabled {
			t.Fatalf("retrieval lost across swaps: %+v", st)
		}
		ann += st.ANN
	}
	if ann == 0 {
		t.Fatal("ANN path never served under load")
	}
}

// TestSimulateSetReplicaInvarianceWithANN extends the replica determinism
// contract to retrieval: CTR/HIR stay bit-identical across replica counts
// with ANN candidate generation enabled.
func TestSimulateSetReplicaInvarianceWithANN(t *testing.T) {
	train, _, _ := simWorld.SplitSessions(0.8, 0.1)
	catalog, index := BuildCatalog(simWorld, train)
	emb := clusterEmb(len(catalog.TagPhrases)/4+1, 4, 10, 29)
	cfg := DefaultSimConfig()
	cfg.Days, cfg.SessionsPerDay = 4, 60

	run := func(replicas int) SimResult {
		scorer := vecScorer{name: "vec", emb: emb}
		b := &ModelBundle{Catalog: catalog, Index: index, Scorer: scorer}
		rs := NewReplicaSet(b, replicas, 1, nil, nil)
		rs.SetRetrieval(RetrievalConfig{Enabled: true, K: 24, MinCatalog: 1})
		return SimulateSet(simWorld, rs, cfg)
	}
	one, three := run(1), run(3)
	if len(one.Days) != len(three.Days) {
		t.Fatal("day counts differ")
	}
	for i := range one.Days {
		a, b := one.Days[i], three.Days[i]
		if a.MacroCTR != b.MacroCTR || a.MicroCTR != b.MicroCTR || a.HIR != b.HIR ||
			a.Impressions != b.Impressions || a.Clicks != b.Clicks {
			t.Fatalf("day %d diverged across replica counts with ANN on:\n1: %+v\n3: %+v", i, a, b)
		}
	}
}

// TestRetrievalTelemetry asserts the observability satellite: path counters,
// the candidate-set-size histogram and the sampled recall gauge all land in
// the registry and the Prometheus exposition.
func TestRetrievalTelemetry(t *testing.T) {
	cat, scorer := retrievalFixture(16, 16, 12, 31, map[int][]int{0: allTags(256)})
	e := NewEngine(cat, search.NewIndex(), scorer, nil, nil)
	e.SetRetrieval(RetrievalConfig{Enabled: true, K: 32, MinCatalog: 1, RecallSample: 1})
	reg := obs.NewRegistry()
	e.SetTelemetry(reg, nil)

	e.RecommendTags(ctx, 0, 7, 5) // cold start
	e.Click(ctx, 0, 7, 50, 5)     // ANN path (history now non-empty)
	e.RecommendTags(ctx, 0, 7, 5) // memo hit — must not double count

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatalf("write exposition: %v", err)
	}
	exp := buf.String()
	for _, want := range []string{
		`intellitag_retrieval_total{bucket="vec",path="ann"} 1`,
		`intellitag_retrieval_total{bucket="vec",path="coldstart"} 1`,
		`intellitag_retrieval_candidates_count{bucket="vec"} 2`,
		`intellitag_retrieval_recall_sampled{bucket="vec"}`,
	} {
		if !strings.Contains(exp, want) {
			t.Fatalf("exposition missing %q:\n%s", want, exp)
		}
	}
	// RecallSample=1 samples the very first ANN retrieval; on this geometry
	// the retrieved set must contain the exact top-k, so the gauge reads 1.
	if g := reg.Gauge("intellitag_retrieval_recall_sampled", "bucket", "vec").Value(); g != 1 {
		t.Fatalf("sampled recall = %v, want 1", g)
	}
}
