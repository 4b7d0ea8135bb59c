package serving

import (
	"sort"
	"sync/atomic"
	"time"

	"intellitag/internal/par"
	"intellitag/internal/search"
	"intellitag/internal/snapshot"
	"intellitag/internal/store"
)

// UnversionedID is the version id of a model installed directly through
// NewEngine rather than loaded from a snapshot store — the pre-PR-5 world of
// "the process serves whatever it was built with".
const UnversionedID = "unversioned"

// ModelBundle is everything model-dependent a version swap installs at once:
// the scorer, the RQ search index, the serving catalog and the optional Q&A
// matcher. Bundles are built by the offline side (a snapshot loader, a
// training run) and handed to Engine.Swap / ReplicaSet.RollingSwap; after
// hand-off the bundle belongs to the serving tier and must not be mutated.
type ModelBundle struct {
	VersionID string // snapshot version id; "" means UnversionedID
	Catalog   Catalog
	Index     *search.Index
	Scorer    Scorer
	Matcher   QuestionMatcher // optional; nil keeps BM25 order on /ask
}

// modelVersion is one immutable generation of model-dependent serving state.
// The engine's request path loads the current version once per request and
// uses only that pointer, so a concurrent swap can never hand a request half
// of one model and half of another. Versions may be shared by every replica
// of a ReplicaSet — the scorer checkout pool is the single point of mutual
// exclusion for scorers whose forward passes cache intermediates.
type modelVersion struct {
	id      string
	seq     int    // numeric sequence for gauges; -1 when unversioned
	gen     uint64 // process-unique generation, the rec memos' key
	catalog Catalog
	index   *search.Index
	scorer  Scorer
	matcher QuestionMatcher

	// tags is the version's ANN candidate retriever, nil when retrieval is
	// disabled or the scorer exposes no embedding table. Attached before the
	// version goes live (attachRetrieval) and immutable afterwards. Its ANN
	// index is built for this version's embedding table, or shared with the
	// outgoing version when the two tables are identical (the online
	// learner's fine-tuned children keep their parent's table); either way a
	// hot swap installs it atomically with everything else, and the
	// generation-keyed rec memos invalidate retrieval results for free.
	tags *tagRetriever

	// scorers is the checkout pool. It always holds at least the scorer
	// itself; resizePool widens it with replicas for models that support
	// them, enabling concurrent request scoring and sharded candidate
	// scoring.
	scorers chan Scorer

	// inflight counts requests currently executing against this version.
	// The swap protocol flips the engine pointer first, so this counter only
	// ever decreases once a version is retired; drain waits for it to reach
	// zero before declaring the old version fully retired.
	inflight atomic.Int64
}

// versionGen numbers model versions in construction order; generations
// start at 1, so a zero recEntry never matches.
var versionGen atomic.Uint64

// newModelVersion builds a version from a bundle with a workers-wide scorer
// pool (<= 1 keeps a single-slot pool).
func newModelVersion(b *ModelBundle, workers int) *modelVersion {
	id := b.VersionID
	if id == "" {
		id = UnversionedID
	}
	v := &modelVersion{
		id:      id,
		seq:     snapshot.SeqOf(id),
		gen:     versionGen.Add(1),
		catalog: b.Catalog,
		index:   b.Index,
		scorer:  b.Scorer,
		matcher: b.Matcher,
	}
	v.resizePool(workers)
	return v
}

// resizePool sizes the scorer checkout pool for n-way concurrent scoring
// (<= 0 selects all CPUs). Models that cannot replicate themselves keep a
// single-slot pool, which serializes scoring but stays correct. Not safe to
// call while the version is serving traffic.
func (v *modelVersion) resizePool(n int) {
	n = par.Resolve(n)
	rep, ok := v.scorer.(interface{ ScorerReplicas(n int) []any })
	if n <= 1 || !ok {
		v.scorers = make(chan Scorer, 1)
		v.scorers <- v.scorer
		return
	}
	pool := make(chan Scorer, n)
	for _, r := range rep.ScorerReplicas(n) {
		s, ok := r.(Scorer)
		if !ok {
			pool = make(chan Scorer, 1)
			pool <- v.scorer
			break
		}
		pool <- s
	}
	v.scorers = pool
}

// warm runs one scoring pass through the fresh version before it goes live,
// so the first request after a flip does not pay for lazily grown model
// buffers. The smallest-id tenant with candidates stands in for real
// traffic; tenants are visited in sorted order so warming is deterministic.
func (v *modelVersion) warm() {
	tenants := make([]int, 0, len(v.catalog.TenantTags))
	for t := range v.catalog.TenantTags {
		tenants = append(tenants, t)
	}
	sort.Ints(tenants)
	for _, t := range tenants {
		cands := v.catalog.TenantTags[t]
		if len(cands) == 0 {
			continue
		}
		if len(cands) > 8 {
			cands = cands[:8]
		}
		s := <-v.scorers
		s.ScoreCandidates([]int{cands[0]}, cands)
		v.scorers <- s
		return
	}
}

// drainTimeout bounds how long a swap waits for the retired version's
// in-flight requests. Requests keep completing on their pinned version
// either way — the bound only stops a stuck scorer from wedging the swapper.
const drainTimeout = 5 * time.Second

// drain waits (by polling; the counter is a plain atomic so there is nothing
// to block on) until every request that started on v has finished, and
// reports whether the version drained within the timeout.
func (v *modelVersion) drain(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for v.inflight.Load() > 0 {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(200 * time.Microsecond)
	}
	return true
}

// VersionInfo is the externally visible state of one engine replica's active
// model version, reported by /healthz, GET /admin/versions and the simulator
// summary.
type VersionInfo struct {
	ID           string `json:"id"`
	Seq          int    `json:"seq"`
	Model        string `json:"model"`
	Replica      int    `json:"replica"`
	Swaps        int64  `json:"swaps"`
	LastSwapUnix int64  `json:"last_swap_unix,omitempty"`
	Drained      bool   `json:"drained"` // last retired version fully drained
}

// Version reports the engine's active version.
func (e *Engine) Version() VersionInfo {
	v := e.cur.Load()
	return VersionInfo{
		ID:           v.id,
		Seq:          v.seq,
		Model:        v.scorer.Name(),
		Replica:      e.replica,
		Swaps:        e.swaps.Load(),
		LastSwapUnix: e.lastSwapUnix.Load(),
		Drained:      !e.undrained.Load(),
	}
}

// Swap hot-swaps this engine to a new model bundle: build the version,
// attach retrieval (sharing the outgoing version's ANN index when the
// embedding table is unchanged), warm it, flip the pointer, drain the old
// version. Requests in flight when the pointer flips finish on the version
// they started with; requests arriving after the flip see only the new
// version. Zero requests are dropped.
func (e *Engine) Swap(b *ModelBundle) VersionInfo {
	v := newModelVersion(b, e.workers)
	if v.attachRetrieval(e.retrieval, e.cur.Load()) { // before the flip
		e.annBuilds.Add(1)
	}
	v.warm()
	return e.swapTo(v)
}

// flipTo atomically installs an already-warmed version and returns the
// retired one. The flip is a single pointer store; per-session memo entries
// are keyed by version so stale entries become misses rather than leaks.
// Draining the retired version is the caller's job — a solo swap drains
// immediately, a rolling swap drains once after the last replica flips.
func (e *Engine) flipTo(v *modelVersion) *modelVersion {
	old := e.cur.Swap(v)
	now := time.Now().Unix()
	e.lastSwapUnix.Store(now)
	e.swaps.Add(1)
	if e.tel != nil {
		e.tel.swaps.Inc()
		e.tel.activeSeq.Set(float64(v.seq))
		e.tel.lastSwap.Set(float64(now))
	}
	return old
}

// swapTo flips to v and drains the retired version.
func (e *Engine) swapTo(v *modelVersion) VersionInfo {
	old := e.flipTo(v)
	drained := true
	if old != nil && old != v {
		drained = old.drain(drainTimeout)
	}
	e.undrained.Store(!drained)
	return e.Version()
}

// ReplicaSet shards sessions over n engine replicas — the horizontal tier
// between the A/B bucket split and each engine's 16-way session shards. All
// replicas serve the same model version (they share the modelVersion and its
// scorer pool, so scorer mutual exclusion spans the set), but each owns its
// own session state, memo caches and latency ring, which is what lets the
// simulator drive millions of distinct sessions without one engine's shard
// mutexes becoming the bottleneck.
type ReplicaSet struct {
	replicas []*Engine
}

// NewReplicaSet builds n engine replicas serving one shared model version
// with a workers-wide scorer pool. A nil log disables event recording; day
// supplies the logical day stamp (nil means day 0).
func NewReplicaSet(b *ModelBundle, n, workers int, log *store.Log, day func() int) *ReplicaSet {
	if n < 1 {
		n = 1
	}
	v := newModelVersion(b, workers)
	rs := &ReplicaSet{replicas: make([]*Engine, n)}
	for i := 0; i < n; i++ {
		rs.replicas[i] = newEngineAt(v, i, workers, log, day)
	}
	return rs
}

// soloSet wraps an existing engine as a single-replica set (the compat path
// behind NewABRouter's variadic-engine constructor).
func soloSet(e *Engine) *ReplicaSet { return &ReplicaSet{replicas: []*Engine{e}} }

// Size returns the replica count.
func (rs *ReplicaSet) Size() int { return len(rs.replicas) }

// Engines lists the replicas in index order.
func (rs *ReplicaSet) Engines() []*Engine { return rs.replicas }

// Pick routes a session to its replica. The hash is a mixed multiplicative
// hash, deliberately independent of both the A/B bucket split (session %
// buckets) and each engine's session shards (session % 16), so replicas stay
// balanced even under stride-patterned session ids.
func (rs *ReplicaSet) Pick(session int) *Engine {
	if len(rs.replicas) == 1 {
		return rs.replicas[0]
	}
	h := uint64(session) * 0x9E3779B97F4A7C15
	h ^= h >> 29
	return rs.replicas[h%uint64(len(rs.replicas))]
}

// Versions reports every replica's active version.
func (rs *ReplicaSet) Versions() []VersionInfo {
	out := make([]VersionInfo, 0, len(rs.replicas))
	for _, e := range rs.replicas {
		out = append(out, e.Version())
	}
	return out
}

// RollingSwap hot-swaps the whole set to a new bundle one replica at a time:
// the version is built and warmed once (its ANN index shared with the
// outgoing version when the embedding table is unchanged), then each
// replica flips, with an optional stagger pause between flips. Mid-roll the
// set intentionally serves two versions — sessions pinned to
// already-flipped replicas see the new model while the rest still see the
// old one — which is exactly the canary window a production rolling deploy
// has. The retired version is
// drained once, after the last flip: the replicas share it, so its in-flight
// count can only reach zero when no replica routes new traffic to it.
func (rs *ReplicaSet) RollingSwap(b *ModelBundle, stagger time.Duration) []VersionInfo {
	v := newModelVersion(b, rs.replicas[0].workers)
	if v.attachRetrieval(rs.replicas[0].retrieval, rs.replicas[0].cur.Load()) { // pre-flip
		rs.noteIndexBuild()
	}
	v.warm()
	var retired []*modelVersion
	for i, e := range rs.replicas {
		if i > 0 && stagger > 0 {
			time.Sleep(stagger)
		}
		old := e.flipTo(v)
		if old == nil || old == v {
			continue
		}
		seen := false
		for _, o := range retired {
			if o == old {
				seen = true
				break
			}
		}
		if !seen {
			retired = append(retired, old)
		}
	}
	drained := true
	for _, o := range retired {
		if !o.drain(drainTimeout) {
			drained = false
		}
	}
	for _, e := range rs.replicas {
		e.undrained.Store(!drained)
	}
	return rs.Versions()
}
