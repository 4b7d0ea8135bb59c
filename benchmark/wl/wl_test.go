package wl

import (
	"bytes"
	"strconv"
	"strings"
	"sync"
	"testing"

	"intellitag/benchmark/prep"
	"intellitag/internal/serving"
	"intellitag/internal/synth"
)

// testWorld is the bench world's tenants and catalogs (few sessions: streams
// use the click process, not the recorded sessions).
var testWorld = sync.OnceValue(func() *World {
	return NewWorld(synth.Generate(prep.UntrainedConfig().World))
})

func stream(t *testing.T, name string, seed int64, conn int) *Stream {
	t.Helper()
	spec, ok := Find(name)
	if !ok {
		t.Fatalf("no workload %s", name)
	}
	s, err := NewStream(spec, testWorld(), seed, conn)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func wire(s *Stream, n int) []byte {
	var buf []byte
	for i := 0; i < n; i++ {
		r := s.Next()
		buf = append(buf, r.Path()...)
		buf = append(buf, ' ')
		buf = r.AppendBody(buf)
		buf = append(buf, '\n')
	}
	return buf
}

func TestMinCatalogMatchesServing(t *testing.T) {
	if got := serving.DefaultRetrievalConfig().MinCatalog; got != MinCatalog {
		t.Fatalf("serving's default MinCatalog is %d, the workloads assume %d", got, MinCatalog)
	}
}

func TestWorldHasBothCatalogSizes(t *testing.T) {
	big, small := 0, 0
	for _, tags := range testWorld().TenantTags {
		if len(tags) >= MinCatalog {
			big++
		} else {
			small++
		}
	}
	if big < 4 || small < 4 {
		t.Fatalf("bench world has %d tenants at or above MinCatalog and %d below; the workloads need several of each", big, small)
	}
}

func TestSameSeedSameBytes(t *testing.T) {
	for _, spec := range Specs {
		a := wire(stream(t, spec.Name, 7, 1), 3000)
		b := wire(stream(t, spec.Name, 7, 1), 3000)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: two streams of seed 7 differ", spec.Name)
		}
		if c := wire(stream(t, spec.Name, 8, 1), 3000); bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 generate the same requests", spec.Name)
		}
		if d := wire(stream(t, spec.Name, 7, 0), 3000); bytes.Equal(a, d) {
			t.Errorf("%s: connections 0 and 1 generate the same requests", spec.Name)
		}
	}
}

// mix counts a stream's requests by what the server will do for them. A
// /recommend that opens its session is computed cold; any later one follows
// a panel computed in the same session and is a memo hit.
type mix struct {
	click, recHit, recCold, ask, sessions int
	tenantTags                            []int // catalog size behind every request
}

func (m mix) total() int { return m.click + m.recHit + m.recCold + m.ask }

func mixOf(s *Stream, n int) mix {
	var m mix
	for i := 0; i < n; i++ {
		r := s.Next()
		if r.First {
			m.sessions++
		}
		m.tenantTags = append(m.tenantTags, len(s.w.TenantTags[r.Tenant]))
		switch {
		case r.Kind == Click:
			m.click++
		case r.Kind == Ask:
			m.ask++
		case r.First:
			m.recCold++
		default:
			m.recHit++
		}
	}
	return m
}

func TestBigTenantClicksIntent(t *testing.T) {
	m := mixOf(stream(t, "big_tenant_clicks", 3, 0), 8000)
	if m.click != m.total() {
		t.Errorf("big_tenant_clicks sent %d /recommend and %d /ask; it is /click only", m.recHit+m.recCold, m.ask)
	}
	for _, n := range m.tenantTags {
		if n < MinCatalog {
			t.Fatalf("big_tenant_clicks used a tenant with %d tags, below MinCatalog", n)
		}
	}
	if want := m.total() / bigClicks; m.sessions != want {
		t.Errorf("%d sessions in %d requests, want %d clicks a session", m.sessions, m.total(), bigClicks)
	}
}

func TestMemoReadsIntent(t *testing.T) {
	m := mixOf(stream(t, "memo_reads", 3, 0), 20000)
	for _, n := range m.tenantTags {
		if n >= MinCatalog {
			t.Fatalf("memo_reads used a tenant with %d tags: the ANN path would run", n)
		}
	}
	if m.ask != 0 {
		t.Errorf("memo_reads sent %d /ask", m.ask)
	}
	if share := float64(m.recHit+m.recCold) / float64(m.total()); share < 0.85 {
		t.Errorf("memo or cold-start answers are %.3f of memo_reads, want >= 0.85", share)
	}
	if m.recCold == 0 {
		t.Error("memo_reads has no zero-history session")
	}
}

func TestSessionMixIntent(t *testing.T) {
	for _, name := range []string{"session_mix", "swap_under_load"} {
		m := mixOf(stream(t, name, 3, 0), 30000)
		if m.recCold != m.sessions {
			t.Errorf("%s: %d sessions but %d cold /recommend: every session opens on one", name, m.sessions, m.recCold)
		}
		if m.recHit != m.click {
			t.Errorf("%s: %d clicks but %d panel refreshes", name, m.click, m.recHit)
		}
		if per := float64(m.click) / float64(m.sessions); per < 2.6 || per > 3.2 {
			t.Errorf("%s: %.2f clicks a session, want about 2.9", name, per)
		}
		if per := float64(m.ask) / float64(m.click); per < 0.30 || per > 0.40 {
			t.Errorf("%s: %.2f questions a click, want about 0.35", name, per)
		}
		if share := float64(m.recHit+m.recCold) / float64(m.total()); share < 0.40 || share > 0.60 {
			t.Errorf("%s: memo or cold-start answers are %.2f of requests, want about half", name, share)
		}
		big := 0
		for _, n := range m.tenantTags {
			if n >= MinCatalog {
				big++
			}
		}
		if share := float64(big) / float64(m.total()); share < 0.2 || share > 0.9 {
			t.Errorf("%s: %.2f of requests go to tenants on the ANN path; both paths should carry traffic", name, share)
		}
	}
}

func TestSessionsStayOnOneConnection(t *testing.T) {
	seen := map[int]int{}
	for conn := 0; conn < 3; conn++ {
		s := stream(t, "session_mix", 5, conn)
		for i := 0; i < 2000; i++ {
			r := s.Next()
			if owner, ok := seen[r.Session]; ok && owner != conn {
				t.Fatalf("session %d appears on connections %d and %d", r.Session, owner, conn)
			}
			seen[r.Session] = conn
		}
	}
}

func TestValidateTags(t *testing.T) {
	member := make([]bool, 10)
	for _, tag := range []int{1, 2, 3, 4, 5, 6} {
		member[tag] = true
	}
	cases := []struct {
		name string
		tags []RankedTag
		want string // substring of the error, "" for valid
	}{
		{"valid", []RankedTag{{1, 0.9}, {2, 0.9}, {3, 0.1}}, ""},
		{"empty", nil, ""},
		{"foreign tenant's tag", []RankedTag{{1, 0.9}, {7, 0.5}}, "not in the tenant's catalog"},
		{"out of range", []RankedTag{{42, 0.9}}, "not in the tenant's catalog"},
		{"duplicate", []RankedTag{{1, 0.9}, {2, 0.8}, {1, 0.7}}, "twice"},
		{"unsorted", []RankedTag{{1, 0.5}, {2, 0.8}}, "scores rise"},
		{"too many", []RankedTag{{1, 6}, {2, 5}, {3, 4}, {4, 3}, {5, 2}, {6, 1}}, "k is 5"},
	}
	for _, c := range cases {
		err := ValidateTags(member, c.tags)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: rejected: %v", c.name, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%s: got %v, want an error containing %q", c.name, err, c.want)
		}
	}
}

func TestCheckerScoresHitAt5(t *testing.T) {
	w := testWorld()
	tenant := 0
	tags := w.TenantTags[tenant][:3]
	panel := func(ts ...int) []byte {
		var b strings.Builder
		b.WriteString(`{"tags":[`)
		for i, tag := range ts {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(`{"tag":` + strconv.Itoa(tag) + `,"phrase":"x","score":` + strconv.Itoa(9-i) + `}`)
		}
		b.WriteString(`],"bucket":"m"}`)
		return []byte(b.String())
	}
	c := NewChecker(w)
	step := func(r Req, body []byte) {
		t.Helper()
		if err := c.Check(&r, 200, body); err != nil {
			t.Fatal(err)
		}
	}
	// Session 1: cold panel, first click (never scored), then a click on a
	// shown tag (hit) and one on a tag not shown (miss).
	step(Req{Kind: Recommend, Tenant: tenant, Session: 1, First: true}, panel(tags[0], tags[1]))
	step(Req{Kind: Click, Tenant: tenant, Session: 1, Tag: tags[0]}, panel(tags[1], tags[2]))
	step(Req{Kind: Click, Tenant: tenant, Session: 1, Tag: tags[2]}, panel(tags[0]))
	step(Req{Kind: Click, Tenant: tenant, Session: 1, Tag: tags[2]}, panel(tags[1]))
	if c.Steps != 2 || c.Hits != 1 {
		t.Fatalf("steps %d hits %d, want 2 and 1", c.Steps, c.Hits)
	}
	// A new session does not inherit the previous session's panel.
	step(Req{Kind: Click, Tenant: tenant, Session: 2, Tag: tags[1], First: true}, panel(tags[0]))
	if c.Steps != 2 {
		t.Fatalf("the first click of a session was scored (steps %d)", c.Steps)
	}
	if err := c.Check(&Req{Kind: Recommend, Tenant: tenant, Session: 2}, 503, []byte("busy")); err == nil {
		t.Error("HTTP 503 passed the checker")
	}
	if err := c.Check(&Req{Kind: Recommend, Tenant: tenant, Session: 2}, 200, []byte("{")); err == nil {
		t.Error("truncated JSON passed the checker")
	}
	foreign := w.W.RQs[len(w.W.RQs)-1]
	if foreign.Tenant == tenant {
		t.Fatal("test needs an RQ of another tenant")
	}
	body := []byte(`{"found":true,"match":{"rq":` + strconv.Itoa(foreign.ID) + `}}`)
	if err := c.Check(&Req{Kind: Ask, Tenant: tenant, Session: 2, Question: "q"}, 200, body); err == nil {
		t.Error("an /ask match from another tenant's RQs passed the checker")
	}
}
