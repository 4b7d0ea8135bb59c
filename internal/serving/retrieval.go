package serving

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"intellitag/internal/ann"
	"intellitag/internal/mat"
)

// TagEmbedder is the capability a scorer must expose for ANN candidate
// retrieval: a static tag-embedding table (row index = tag id). core.Model
// satisfies it once frozen; scorers without a table (popularity baselines,
// test stubs) simply serve exhaustively.
type TagEmbedder interface {
	TagEmbeddings() *mat.Matrix
}

// RetrievalConfig controls the retrieve-then-rank split of RecommendTags.
// When enabled and the scorer exposes tag embeddings, a request first
// retrieves K approximate nearest tags of the session's recent-history
// centroid from a per-version ANN index and only ranks those with the model,
// turning the per-request scoring cost from O(tenant catalog) into O(K).
// Requests fall back to the exhaustive path when the tenant catalog is
// smaller than MinCatalog (brute force is already cheap there), when the
// session is cold (no history — popularity ranking needs no retrieval), or
// when tenant filtering leaves fewer than k survivors.
type RetrievalConfig struct {
	Enabled      bool
	K            int    // candidates retrieved per request (before tenant filtering)
	Backend      string // "hnsw" (default) or "lsh"
	MinCatalog   int    // tenant catalogs below this stay exhaustive
	RecallSample int    // sample every Nth ANN retrieval for the recall gauge; 0 disables
}

// DefaultRetrievalConfig is the serving default: HNSW retrieval of 64
// candidates with exhaustive scoring below 256-tag catalogs.
func DefaultRetrievalConfig() RetrievalConfig {
	return RetrievalConfig{Enabled: true, K: 64, Backend: "hnsw", MinCatalog: 256}
}

// normalize fills zero values with defaults.
func (c RetrievalConfig) normalize() RetrievalConfig {
	d := DefaultRetrievalConfig()
	if c.K <= 0 {
		c.K = d.K
	}
	if c.Backend == "" {
		c.Backend = d.Backend
	}
	if c.MinCatalog <= 0 {
		c.MinCatalog = d.MinCatalog
	}
	return c
}

// Retrieval path outcomes, counted per recommendation computation (memo hits
// are not recomputations and count under none of these).
const (
	pathANN        = iota // ANN retrieval supplied the candidate set
	pathFallback          // ANN tried, too few tenant survivors, scored exhaustively
	pathExhaustive        // retrieval disabled/unavailable or catalog below MinCatalog
	pathColdStart         // no history: popularity ranking, retrieval not applicable
	numRetrievalPaths
)

var retrievalPathNames = [numRetrievalPaths]string{"ann", "fallback", "exhaustive", "coldstart"}

// RetrievalStats is the externally visible retrieval accounting of one engine
// replica, reported by /healthz and the simulator summary. IndexBuilds
// counts the ANN indexes built for versions this replica installed; a swap
// whose embedding table equals the outgoing one's shares the index and adds
// nothing.
type RetrievalStats struct {
	Enabled     bool   `json:"enabled"`
	Backend     string `json:"backend,omitempty"`
	IndexSize   int    `json:"index_size,omitempty"`
	IndexBuilds int64  `json:"index_builds"`
	ANN         int64  `json:"ann"`
	Fallback    int64  `json:"fallback"`
	Exhaustive  int64  `json:"exhaustive"`
	ColdStart   int64  `json:"coldstart"`
}

// RetrievalStats reports this engine's retrieval path counts and the active
// version's retriever identity.
func (e *Engine) RetrievalStats() RetrievalStats {
	v := e.cur.Load()
	st := RetrievalStats{
		IndexBuilds: e.annBuilds.Load(),
		ANN:         e.retrievalPaths[pathANN].Load(),
		Fallback:    e.retrievalPaths[pathFallback].Load(),
		Exhaustive:  e.retrievalPaths[pathExhaustive].Load(),
		ColdStart:   e.retrievalPaths[pathColdStart].Load(),
	}
	if tr := v.tags; tr != nil {
		st.Enabled = true
		st.Backend = tr.index.Name()
		st.IndexSize = tr.index.Len()
	}
	return st
}

// historyWindow is how many of the most recent clicks form the retrieval
// query (their embedding centroid). Recency-bounded like the model's own
// sequence window, and fixed so replicas agree bit-for-bit.
const historyWindow = 8

// retrievalScratch is the pooled per-request state of one retrieval: the ANN
// scratch plus the query-centroid and candidate buffers. Pooled via sync.Pool
// so the steady-state ANN path allocates only the final candidate slice.
type retrievalScratch struct {
	sc    *ann.Scratch
	query []float64
	ids   []int
}

// tagRetriever is one model version's retrieval state: the ANN index over the
// scorer's tag-embedding table plus per-tenant membership sets. It is built at
// version construction time — before warm and the pointer flip — so hot swaps
// stay zero-downtime and every replica shares one index. Immutable once built;
// safe for concurrent retrieve calls. The index is immutable too, which is
// what lets a later version with an identical table reuse it.
type tagRetriever struct {
	cfg     RetrievalConfig
	index   ann.Retriever
	vecs    *mat.Matrix
	members map[int][]int // tenant -> sorted tag ids (for binary-search filtering)

	pool    sync.Pool    // *retrievalScratch
	sampled atomic.Int64 // ANN retrievals since start, for recall sampling
}

// newTagRetriever wraps an ANN index over the embedding table with the
// catalog's tenant membership lists.
func newTagRetriever(index ann.Retriever, vecs *mat.Matrix, catalog Catalog, cfg RetrievalConfig) *tagRetriever {
	tr := &tagRetriever{cfg: cfg, index: index, vecs: vecs, members: make(map[int][]int, len(catalog.TenantTags))}
	tenants := make([]int, 0, len(catalog.TenantTags))
	for tenant := range catalog.TenantTags {
		tenants = append(tenants, tenant)
	}
	sort.Ints(tenants)
	for _, tenant := range tenants {
		tags := catalog.TenantTags[tenant]
		if sort.IntsAreSorted(tags) {
			tr.members[tenant] = tags
			continue
		}
		cp := append([]int(nil), tags...)
		sort.Ints(cp)
		tr.members[tenant] = cp
	}
	tr.pool.New = func() any { return &retrievalScratch{sc: ann.NewScratch()} }
	return tr
}

// attachRetrieval gives the version its retriever, or leaves it nil when
// retrieval is off, the scorer has no embedding table, or the table is empty.
// When prev (the outgoing version, may be nil) has a retriever on the same
// backend over an identical table, its ANN index is reused — the index is a
// deterministic function of (table, backend), so panels stay bit-identical —
// and only the tenant membership lists are rebuilt. Reports whether it built
// a new index. Called during version construction, never on a live version.
func (v *modelVersion) attachRetrieval(cfg RetrievalConfig, prev *modelVersion) bool {
	v.tags = nil
	if !cfg.Enabled {
		return false
	}
	emb, ok := v.scorer.(TagEmbedder)
	if !ok {
		return false
	}
	vecs := emb.TagEmbeddings()
	if vecs == nil || vecs.Rows == 0 {
		return false
	}
	cfg = cfg.normalize()
	if prev != nil && prev.tags != nil && prev.tags.cfg.Backend == cfg.Backend && sameTable(prev.tags.vecs, vecs) {
		v.tags = newTagRetriever(prev.tags.index, vecs, v.catalog, cfg)
		return false
	}
	var index ann.Retriever
	switch cfg.Backend {
	case "lsh":
		index = ann.Build(vecs, ann.DefaultConfig())
	default:
		index = ann.BuildGraph(vecs, ann.DefaultGraphConfig())
	}
	v.tags = newTagRetriever(index, vecs, v.catalog, cfg)
	return true
}

// sameTable reports whether two embedding tables are bit-for-bit identical.
// At serving scale (10^3 tags x 16 dims) the scan costs microseconds; an
// index build costs tens of milliseconds.
func sameTable(a, b *mat.Matrix) bool {
	if a == b {
		return true
	}
	if a.Rows != b.Rows || a.Cols != b.Cols || len(a.Data) != len(b.Data) {
		return false
	}
	for i, x := range a.Data {
		if math.Float64bits(x) != math.Float64bits(b.Data[i]) {
			return false
		}
	}
	return true
}

// centroid writes the mean embedding of the last historyWindow clicks into
// rs.query and returns it (nil when no history tag has an embedding row).
func (tr *tagRetriever) centroid(rs *retrievalScratch, history []int) []float64 {
	if cap(rs.query) < tr.vecs.Cols {
		rs.query = make([]float64, tr.vecs.Cols)
	}
	q := rs.query[:tr.vecs.Cols]
	clear(q)
	recent := history
	if len(recent) > historyWindow {
		recent = recent[len(recent)-historyWindow:]
	}
	n := 0
	for _, tag := range recent {
		if tag < 0 || tag >= tr.vecs.Rows {
			continue
		}
		row := tr.vecs.Row(tag)
		for j, x := range row {
			q[j] += x
		}
		n++
	}
	if n == 0 {
		return nil
	}
	inv := 1 / float64(n)
	for j := range q {
		q[j] *= inv
	}
	rs.query = q
	return q
}

// retrieve returns at least want candidate tag ids for the tenant, ascending,
// or nil when the ANN path cannot satisfy the request (caller falls back to
// the exhaustive candidate list). The returned slice is freshly allocated —
// it outlives the pooled scratch.
func (tr *tagRetriever) retrieve(history []int, tenant, want int) []int {
	member := tr.members[tenant]
	if len(member) == 0 {
		return nil
	}
	rs := tr.pool.Get().(*retrievalScratch)
	defer tr.pool.Put(rs)
	q := tr.centroid(rs, history)
	if q == nil {
		return nil
	}
	k := tr.cfg.K
	if k < want {
		k = want
	}
	hits := tr.index.SearchInto(rs.sc, q, k, -1)
	ids := rs.ids[:0]
	for _, h := range hits {
		// Keep only the tenant's tags; membership lists are sorted.
		i := sort.SearchInts(member, h.ID)
		if i < len(member) && member[i] == h.ID {
			ids = append(ids, h.ID)
		}
	}
	rs.ids = ids
	if len(ids) < want {
		return nil
	}
	// Ascending id order: the ranker's output sort is (score desc, tag asc),
	// so candidate order never leaks into results, but a canonical order keeps
	// scoring inputs — and therefore any scorer-internal caching — replica
	// independent.
	out := append([]int(nil), ids...)
	sort.Ints(out)
	return out
}

// sampledRecall measures one retrieval against exact cosine search restricted
// to the tenant: |retrieved ∩ exact-top-len(got)| / len(got). Runs only on
// sampled requests (RecallSample), so the linear scan is off the common path.
func (tr *tagRetriever) sampledRecall(history []int, tenant int, got []int) float64 {
	member := tr.members[tenant]
	if len(member) == 0 || len(got) == 0 {
		return 0
	}
	rs := tr.pool.Get().(*retrievalScratch)
	defer tr.pool.Put(rs)
	q := tr.centroid(rs, history)
	if q == nil {
		return 0
	}
	exact := make([]ann.Neighbor, 0, len(member))
	for _, tag := range member {
		if tag < 0 || tag >= tr.vecs.Rows {
			continue
		}
		exact = append(exact, ann.Neighbor{ID: tag, Sim: mat.CosineSim(q, tr.vecs.Row(tag))})
	}
	sort.Slice(exact, func(i, j int) bool {
		if exact[i].Sim != exact[j].Sim {
			return exact[i].Sim > exact[j].Sim
		}
		return exact[i].ID < exact[j].ID
	})
	if len(exact) > len(got) {
		exact = exact[:len(got)]
	}
	hits := 0
	for _, n := range exact {
		i := sort.SearchInts(got, n.ID)
		if i < len(got) && got[i] == n.ID {
			hits++
		}
	}
	return float64(hits) / float64(len(exact))
}

// SetRetrieval configures ANN candidate retrieval on this engine and attaches
// an index to the active version. The config also applies to versions
// installed by later swaps. Setup-time call, not safe concurrently with
// requests or swaps.
func (e *Engine) SetRetrieval(cfg RetrievalConfig) {
	e.retrieval = cfg
	if e.cur.Load().attachRetrieval(cfg, nil) {
		e.annBuilds.Add(1)
	}
}

// SetRetrieval configures ANN candidate retrieval across the set. The
// replicas share one model version, so the index is built once.
func (rs *ReplicaSet) SetRetrieval(cfg RetrievalConfig) {
	for _, e := range rs.replicas {
		e.retrieval = cfg
	}
	if rs.replicas[0].cur.Load().attachRetrieval(cfg, nil) {
		rs.noteIndexBuild()
	}
}

// noteIndexBuild counts one ANN index build on every replica: they all
// install the version that carries it.
func (rs *ReplicaSet) noteIndexBuild() {
	for _, e := range rs.replicas {
		e.annBuilds.Add(1)
	}
}

// noteRetrievalPath counts one recommendation computation's serving path.
func (e *Engine) noteRetrievalPath(path int, candidates int) {
	e.retrievalPaths[path].Add(1)
	if e.tel == nil {
		return
	}
	e.tel.retrievalPaths[path].Inc()
	e.tel.retrievalCands.Observe(float64(candidates))
}

// maybeSampleRecall publishes the sampled-recall gauge for one ANN-served
// request. Telemetry-only: it never influences the response, so the extra
// exact scan stays outside the determinism contract.
func (e *Engine) maybeSampleRecall(tr *tagRetriever, history []int, tenant int, got []int) {
	if e.tel == nil || tr.cfg.RecallSample <= 0 {
		return
	}
	if tr.sampled.Add(1)%int64(tr.cfg.RecallSample) != 0 {
		return
	}
	e.tel.retrievalRecall.Set(tr.sampledRecall(history, tenant, got))
}
