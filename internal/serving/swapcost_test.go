package serving

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"intellitag/internal/core"
	"intellitag/internal/snapshot"
)

// snapshotModels commits a trained-shape model over simWorld as a snapshot
// version, a core.FineTune child of it (same embedding table, new sequence
// head) and an unrelated model with a different table. load restores a
// version the way the server's swap loader does: a fresh model per call.
func snapshotModels(t *testing.T) (base, child, other string, load func(id string) *core.Model) {
	t.Helper()
	train, _, _ := simWorld.SplitSessions(0.8, 0.1)
	graph := simWorld.BuildGraph(train)
	cfg := core.DefaultConfig()
	cfg.Dim, cfg.Heads, cfg.NeighborCap = 8, 2, 4
	s, err := snapshot.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m := core.Build(cfg, graph, nil)
	m.Freeze()
	v1, err := core.CommitSnapshot(s, m, graph)
	if err != nil {
		t.Fatal(err)
	}
	var sessions [][]int
	for _, sess := range train[:40] {
		sessions = append(sessions, sess.Clicks)
	}
	ft := core.DefaultFineTuneConfig()
	ft.Seed, ft.Workers = 5, 1
	if _, err := core.FineTune(m, sessions, ft); err != nil {
		t.Fatal(err)
	}
	v2, err := core.CommitChildSnapshot(s, m, graph, v1.ID)
	if err != nil {
		t.Fatal(err)
	}
	cfgOther := cfg
	cfgOther.Seed++
	o := core.Build(cfgOther, graph, nil)
	o.Freeze()
	v3, err := core.CommitSnapshot(s, o, graph)
	if err != nil {
		t.Fatal(err)
	}
	load = func(id string) *core.Model {
		t.Helper()
		m, _, err := core.LoadSnapshotVersion(s, id, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if m.Graph.Neighbors != nil {
			t.Fatalf("loading %s built a metapath neighbour cache", id)
		}
		return m
	}
	return v1.ID, v2.ID, v3.ID, load
}

// TestSameTableSwapSharesIndex is the swap cost budget in counts: rolling
// back and forth between a model and its fine-tuned child (one embedding
// table) builds the ANN index once, a swap to a different table builds
// exactly one more, and the panels served after a same-table swap equal
// those of an engine built from scratch on that version.
func TestSameTableSwapSharesIndex(t *testing.T) {
	base, child, other, load := snapshotModels(t)
	train, _, _ := simWorld.SplitSessions(0.8, 0.1)
	catalog, index := BuildCatalog(simWorld, train)
	bundle := func(id string) *ModelBundle {
		return &ModelBundle{VersionID: id, Catalog: catalog, Index: index, Scorer: load(id)}
	}
	rc := RetrievalConfig{Enabled: true, K: 16, MinCatalog: 1}
	builds := func(rs *ReplicaSet) int64 {
		t.Helper()
		n := rs.Engines()[0].RetrievalStats().IndexBuilds
		for _, e := range rs.Engines() {
			if got := e.RetrievalStats().IndexBuilds; got != n {
				t.Fatalf("replicas disagree on index builds: %d vs %d", got, n)
			}
		}
		return n
	}

	rs := NewReplicaSet(bundle(base), 2, 1, nil, nil)
	rs.SetRetrieval(rc)
	if n := builds(rs); n != 1 {
		t.Fatalf("initial attach built %d indexes, want 1", n)
	}
	for i, id := range []string{child, base, child} {
		rs.RollingSwap(bundle(id), 0)
		if n := builds(rs); n != 1 {
			t.Fatalf("same-table swap %d to %s: %d index builds, want 1", i+1, id, n)
		}
	}
	rec := httptest.NewRecorder()
	NewServer(NewReplicatedABRouter(rs)).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	var health healthzResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &health); err != nil {
		t.Fatalf("decode /healthz: %v", err)
	}
	if health.Retrieval.IndexBuilds != 1 {
		t.Fatalf("/healthz retrieval.index_builds = %d, want 1", health.Retrieval.IndexBuilds)
	}

	// Panels after the same-table swaps equal a fresh engine's on child.
	fresh := NewReplicaSet(bundle(child), 2, 1, nil, nil)
	fresh.SetRetrieval(rc)
	const k = 5
	var ann int64
	for session := 0; session < 24; session++ {
		tenant := session % len(simWorld.Tenants)
		tags := catalog.TenantTags[tenant]
		if len(tags) == 0 {
			continue
		}
		for _, tag := range []int{tags[session%len(tags)], tags[(3*session+1)%len(tags)]} {
			got, _ := rs.Pick(session).Click(ctx, tenant, session, tag, k)
			want, _ := fresh.Pick(session).Click(ctx, tenant, session, tag, k)
			if len(got) != len(want) {
				t.Fatalf("session %d: %d recs after swaps, %d fresh", session, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("session %d rank %d: swapped %+v != fresh %+v", session, i, got[i], want[i])
				}
			}
		}
	}
	for _, e := range rs.Engines() {
		ann += e.RetrievalStats().ANN
	}
	if ann == 0 {
		t.Fatal("the ANN path never served, so the shared index was never exercised")
	}

	rs.RollingSwap(bundle(other), 0)
	if n := builds(rs); n != 2 {
		t.Fatalf("swap to a different table: %d index builds, want 2", n)
	}
	e := NewEngine(catalog, index, load(base), nil, nil)
	e.SetRetrieval(rc)
	e.Swap(bundle(child))
	e.Swap(bundle(other))
	if n := e.RetrievalStats().IndexBuilds; n != 2 {
		t.Fatalf("solo engine: %d index builds after a same-table and a new-table swap, want 2", n)
	}
}

// TestMemoDoesNotPinRetiredVersion: sessions idle across a swap keep their
// (now stale) memo entries, and those entries must not keep the retired
// version — its model, index and scorer pool — reachable.
func TestMemoDoesNotPinRetiredVersion(t *testing.T) {
	e := newTestEngine(t, nil)
	e.Swap(testBundle(t, "v0001-aaaaaaaa", "up", true))
	const tenant, k = 0, 4
	tags := e.Catalog().TenantTags[tenant]
	for session := 0; session < 24; session++ {
		e.Click(ctx, tenant, session, tags[session%len(tags)], k)
	}
	finalized := watchFinalizer(e.cur.Load())

	info := e.Swap(testBundle(t, "v0002-bbbbbbbb", "down", false))
	if !info.Drained {
		t.Fatalf("retired version did not drain: %+v", info)
	}
	for session := 0; session < 24; session++ {
		if _, ok := e.shard(session).recs[session]; !ok {
			t.Fatalf("session %d lost its memo entry; the test needs it to remain", session)
		}
	}
	// The engine, and with it every memo entry, must outlive the wait: an
	// unreachable engine would free the retired version whatever it held.
	defer runtime.KeepAlive(e)
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		select {
		case <-finalized:
			return
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("retired version still reachable after swap, drain and GC: stale memo entries pin it")
		}
	}
}

// watchFinalizer returns a channel closed once v is garbage collected. It
// lives in its own function so the caller's stack never holds v.
func watchFinalizer(v *modelVersion) <-chan struct{} {
	done := make(chan struct{})
	runtime.SetFinalizer(v, func(*modelVersion) { close(done) })
	return done
}
