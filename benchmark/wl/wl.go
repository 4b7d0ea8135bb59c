// Package wl generates the benchmark's four serving workloads and checks
// the server's answers. A workload is a session script over the prepared
// world's own click process (synth.World.StartSession / NextClick), so the
// tags a session clicks are the ones the model was trained to predict and
// hit_at_5 means something. Streams depend on (workload, seed, connection)
// only: the same three give byte-identical requests.
package wl

import (
	"fmt"
	"strconv"

	"intellitag/internal/mat"
	"intellitag/internal/synth"
)

// MinCatalog mirrors serving.DefaultRetrievalConfig().MinCatalog: tenants at
// or above it take the ANN path, tenants below it are scored exhaustively.
// TestMinCatalogMatchesServing pins the two together.
const MinCatalog = 256

// TopK is the k every request asks for.
const TopK = 5

// LimitUS is the paced phase's latency limit from due time, in microseconds:
// 10 ms, the same for every workload. Under paced load the one-core server's
// latency has a tail of garbage-collector time slices (up to 10 ms each)
// that reaches 25 ms whatever the workload's median is, so a limit tied to
// the median — the 10 x svc_p50_us first proposed, 0.5 to 3 ms — sat on that
// tail's steep part, and paced_ok_frac swung by 3-9% from run to run. At
// 10 ms a request misses when it met a whole time slice, a swap, or a server
// that no longer keeps up with the rate: 0.94-0.997 of them make it, 0.6-3.8%
// apart over ten seeds. At 20 ms nearly all do and the metric read exactly 1
// on six runs of ten, where it can show nothing. On swap_under_load the share
// within the limit is flat from 5 ms to 20 ms.
const LimitUS = 10000.0

// Spec is one workload. PacedRate is a frozen constant — 0.5 x the service
// phase's request rate measured on the commit that defined the benchmark, two
// significant figures — never derived at run time, so a faster or slower
// server shows in paced_ok_frac instead of moving the bar. swap_under_load is
// offered 0.25 x: what it measures is the share of time a swap leaves the
// server answering, and the smaller backlog a swap builds at the lower rate
// drains sooner and blurs that less.
type Spec struct {
	Name      string
	Why       string  // one line, copied into BENCHMARK.json
	PacedRate float64 // req/s offered in the paced phase
	Swap      bool    // alternate snapshot versions while traffic runs
	Intent    Intent  // what the traced run must find
	script    func(*Stream)
	tenant    func(tags int) bool // which tenant catalog sizes the workload uses
}

// Intent is what makes a workload the one its description promises, as
// bounds on what the traced run measures: the share of panels that took the
// ANN path, the share answered from the per-session memo, and the share
// answered cheaply (memo or cold start).
type Intent struct {
	ANNMin, ANNMax float64
	MemoMax        float64
	CheapMin       float64
}

// Violations lists the ways a traced run's path shares (its serving.*
// metrics, by name) break the intent.
func (in Intent) Violations(v map[string]float64) []string {
	var out []string
	if a := v["serving.path_ann_frac"]; a < in.ANNMin || a > in.ANNMax {
		out = append(out, fmt.Sprintf("serving.path_ann_frac %.4f outside [%g, %g]", a, in.ANNMin, in.ANNMax))
	}
	if m := v["serving.memo_hit_frac"]; m > in.MemoMax {
		out = append(out, fmt.Sprintf("serving.memo_hit_frac %.4f over %g", m, in.MemoMax))
	}
	if c := v["serving.memo_hit_frac"] + v["serving.path_coldstart_frac"]; c < in.CheapMin {
		out = append(out, fmt.Sprintf("memo and cold-start panels are %.4f of all, under %g", c, in.CheapMin))
	}
	return out
}

// anyMix is the intent of a workload that promises no particular mix.
var anyMix = Intent{ANNMax: 1, MemoMax: 1}

// Specs lists the workloads in reporting order.
var Specs = []Spec{
	{
		Name:      "session_mix",
		Why:       "the paper's traffic: all tenants by size, cold /recommend then ~2.9 x (/click, /recommend), /ask at 0.35; every layer works in proportion",
		PacedRate: 2200, Intent: anyMix,
		script: scriptMix, tenant: func(int) bool { return true },
	},
	{
		Name:      "big_tenant_clicks",
		Why:       "/click only on tenants of at least 256 tags, 8 clicks a session: no memo hits, ANN path, so ann, core, search and engine ranking dominate and HTTP least",
		PacedRate: 1300, Intent: Intent{ANNMin: 0.95, ANNMax: 1, MemoMax: 0},
		script: scriptBigClicks, tenant: func(n int) bool { return n >= MinCatalog },
	},
	{
		Name:      "memo_reads",
		Why:       "tenants under 256 tags, each /click polled by 8 /recommend: ~90% memo or cold-start answers, ANN never runs, so net/http, JSON and the shard lock dominate",
		PacedRate: 5700, Intent: Intent{ANNMax: 0, MemoMax: 1, CheapMin: 0.85},
		script: scriptMemoReads, tenant: func(n int) bool { return n < MinCatalog },
	},
	{
		Name:      "swap_under_load",
		Why:       "session_mix traffic while /admin/swap alternates two versions with one embedding digest: version build beside request reads; the only place swap cost shows",
		PacedRate: 800, Swap: true, Intent: anyMix,
		script: scriptMix, tenant: func(int) bool { return true },
	},
}

// Find returns the named workload.
func Find(name string) (Spec, bool) {
	for _, s := range Specs {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}

// Kind is a request's API route.
type Kind uint8

// Request kinds.
const (
	Recommend Kind = iota
	Click
	Ask
)

var kindPath = [...]string{"/recommend", "/click", "/ask"}

func (k Kind) String() string { return kindPath[k][1:] }

// Req is one generated request.
type Req struct {
	Kind     Kind
	Tenant   int
	Session  int
	Tag      int    // Click only
	Question string // Ask only
	// First marks the first request of its session (the checker forgets the
	// previous session's answer there).
	First bool
}

// Path is the request's route.
func (r *Req) Path() string { return kindPath[r.Kind] }

// AppendBody appends the request's JSON body to dst.
func (r *Req) AppendBody(dst []byte) []byte {
	dst = append(dst, `{"tenant":`...)
	dst = strconv.AppendInt(dst, int64(r.Tenant), 10)
	dst = append(dst, `,"session":`...)
	dst = strconv.AppendInt(dst, int64(r.Session), 10)
	switch r.Kind {
	case Click:
		dst = append(dst, `,"tag":`...)
		dst = strconv.AppendInt(dst, int64(r.Tag), 10)
	case Ask:
		dst = append(dst, `,"question":`...)
		dst = strconv.AppendQuote(dst, r.Question) // lexicon is lower-case ASCII
	}
	if r.Kind != Ask {
		dst = append(dst, `,"k":`...)
		dst = strconv.AppendInt(dst, TopK, 10)
	}
	return append(dst, '}')
}

// World is what streams and checkers need of the prepared world: the click
// process plus per-tenant catalogs (as the server derives them).
type World struct {
	W          *synth.World
	TenantTags map[int][]int // tenant -> catalog tag ids
	member     [][]bool      // tenant -> tag id -> in catalog
	tenantRQs  [][]int       // tenant -> RQ ids
}

// NewWorld indexes a world for generation and checking. Tenant catalogs are
// derived as serving.BuildCatalog derives them: the tags of the tenant's RQs.
func NewWorld(w *synth.World) *World {
	x := &World{W: w, TenantTags: map[int][]int{}}
	x.member = make([][]bool, len(w.Tenants))
	x.tenantRQs = make([][]int, len(w.Tenants))
	for t := range w.Tenants {
		x.TenantTags[t] = w.TagsOfTenant(t)
		x.member[t] = make([]bool, len(w.Tags))
		for _, tag := range x.TenantTags[t] {
			x.member[t][tag] = true
		}
	}
	for _, rq := range w.RQs {
		x.tenantRQs[rq.Tenant] = append(x.tenantRQs[rq.Tenant], rq.ID)
	}
	return x
}

// InCatalog reports whether the tag is in the tenant's catalog.
func (x *World) InCatalog(tenant, tag int) bool { return x.member[tenant][tag] }

// SessionStride separates the session-id spaces of connections. It is a
// multiple of the engine's 16 session shards, so adding a multiple of it
// keeps a session on the same shard.
const SessionStride = 1 << 32

// Stream yields one connection's endless request sequence. Sessions run one
// after another, so a session's requests are always sent in order by one
// connection and its answers depend only on its own history.
type Stream struct {
	spec    Spec
	w       *World
	rng     *mat.RNG
	tenants []int     // eligible tenant ids
	weights []float64 // their traffic weights (tenant size)
	nextSID int
	queue   []Req
	head    int
}

// NewStream returns connection conn's stream of a workload.
func NewStream(spec Spec, w *World, seed int64, conn int) (*Stream, error) {
	s := &Stream{
		spec:    spec,
		w:       w,
		rng:     mat.NewRNG(seed*1_000_003 + int64(conn)*7919 + 17),
		nextSID: (conn + 1) * SessionStride,
	}
	for _, t := range w.W.Tenants {
		if n := len(w.TenantTags[t.ID]); n > 0 && spec.tenant(n) {
			s.tenants = append(s.tenants, t.ID)
			s.weights = append(s.weights, t.Size)
		}
	}
	if len(s.tenants) == 0 {
		return nil, fmt.Errorf("wl: workload %s: the world has no tenant of the required catalog size", spec.Name)
	}
	return s, nil
}

// Next returns the next request. The pointer is valid until the following
// call.
func (s *Stream) Next() *Req {
	if s.head == len(s.queue) {
		s.queue, s.head = s.queue[:0], 0
		s.spec.script(s)
		s.queue[0].First = true
	}
	r := &s.queue[s.head]
	s.head++
	return r
}

func (s *Stream) begin() (tenant, sid int, st synth.ProcState) {
	tenant = s.tenants[s.rng.Categorical(s.weights)]
	sid = s.nextSID
	s.nextSID++
	return tenant, sid, s.w.W.StartSession(tenant, s.rng)
}

func (s *Stream) push(r Req) { s.queue = append(s.queue, r) }

// Session shape shared with the world's own generator: geometric length with
// mean MeanClicks, capped at MaxClicks.
func (s *Stream) sessionEnds() bool { return s.rng.Float64() < 1/s.w.W.Config.MeanClicks }

// scriptMix is the paper's session: the panel opens on a cold /recommend,
// every click is followed by the panel's /recommend refresh (a memo hit),
// and a click brings a typed question with probability QuestionProb.
func scriptMix(s *Stream) {
	tenant, sid, st := s.begin()
	cfg := s.w.W.Config
	s.push(Req{Kind: Recommend, Tenant: tenant, Session: sid})
	tag := st.LastClick
	for n := 1; ; n++ {
		s.push(Req{Kind: Click, Tenant: tenant, Session: sid, Tag: tag})
		s.push(Req{Kind: Recommend, Tenant: tenant, Session: sid})
		if rqs := s.w.tenantRQs[tenant]; len(rqs) > 0 && s.rng.Float64() < cfg.QuestionProb {
			q := s.w.W.Paraphrase(rqs[s.rng.Intn(len(rqs))], s.rng)
			s.push(Req{Kind: Ask, Tenant: tenant, Session: sid, Question: q})
		}
		if n >= cfg.MaxClicks || s.sessionEnds() {
			return
		}
		tag = s.w.W.NextClick(&st, s.rng)
	}
}

// bigClicks is the fixed session length of big_tenant_clicks: long enough to
// fill the retrieval query's 8-click window.
const bigClicks = 8

func scriptBigClicks(s *Stream) {
	tenant, sid, st := s.begin()
	tag := st.LastClick
	for n := 0; n < bigClicks; n++ {
		s.push(Req{Kind: Click, Tenant: tenant, Session: sid, Tag: tag})
		tag = s.w.W.NextClick(&st, s.rng)
	}
}

// memo_reads shape: a click is polled memoPolls times; one session in
// memoColdOneIn never clicks and only polls the cold-start panel.
const (
	memoPolls     = 8
	memoClicks    = 2
	memoColdOneIn = 5
	memoColdPolls = 4
)

func scriptMemoReads(s *Stream) {
	tenant, sid, st := s.begin()
	if s.rng.Intn(memoColdOneIn) == 0 {
		for n := 0; n < memoColdPolls; n++ {
			s.push(Req{Kind: Recommend, Tenant: tenant, Session: sid})
		}
		return
	}
	tag := st.LastClick
	for c := 0; c < memoClicks; c++ {
		s.push(Req{Kind: Click, Tenant: tenant, Session: sid, Tag: tag})
		for n := 0; n < memoPolls; n++ {
			s.push(Req{Kind: Recommend, Tenant: tenant, Session: sid})
		}
		tag = s.w.W.NextClick(&st, s.rng)
	}
}
