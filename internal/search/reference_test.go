package search

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"intellitag/internal/mat"
	"intellitag/internal/synth"
	"intellitag/internal/textproc"
)

// referenceSearch is the map-based BM25 ranking Search replaced, kept as the
// specification the pooled implementation must reproduce bit for bit: the
// same per-term scores, summed per document in query-term order, ranked by
// (score desc, id asc). It reads a term's documents from
// referencePostings, not from the index's postings, so it shares no index
// structure with the code under test.
func referenceSearch(ix *Index, postings map[string][]int, query string, tenant, k int) []Hit {
	terms := textproc.Tokenize(query)
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if len(ix.docs) == 0 || len(terms) == 0 {
		return nil
	}
	avgLen := float64(ix.totalLen) / float64(len(ix.docs))
	scores := map[int]float64{}
	seenTerm := map[string]bool{}
	for _, term := range terms {
		if seenTerm[term] {
			continue
		}
		seenTerm[term] = true
		ids := postings[term]
		if len(ids) == 0 {
			continue
		}
		idf := math.Log(1 + (float64(len(ix.docs))-float64(len(ids))+0.5)/(float64(len(ids))+0.5))
		for _, id := range ids {
			d := ix.docs[id]
			if tenant >= 0 && d.Tenant != tenant {
				continue
			}
			tf := float64(d.counts[term])
			dl := float64(len(d.tokens))
			score := idf * tf * (ix.k1 + 1) / (tf + ix.k1*(1-ix.b+ix.b*dl/avgLen))
			scores[id] += score
		}
	}
	ids := make([]int, 0, len(scores))
	for id := range scores {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	hits := make([]Hit, 0, len(ids))
	for _, id := range ids {
		hits = append(hits, Hit{ID: id, Score: scores[id]})
	}
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].Score != hits[j].Score {
			return hits[i].Score > hits[j].Score
		}
		return hits[i].ID < hits[j].ID
	})
	if k > 0 && len(hits) > k {
		hits = hits[:k]
	}
	return hits
}

// referencePostings lists each term's documents, rebuilt from the documents'
// own term counts. Order within a list is irrelevant: a document's score
// sums over query terms, never over other documents.
func referencePostings(ix *Index) map[string][]int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	out := map[string][]int{}
	for id, d := range ix.docs {
		for term := range d.counts {
			out[term] = append(out[term], id)
		}
	}
	return out
}

// benchWorld is the repo benchmark's world shape (8 topics x 150 tags, 24
// tenants with 10..2400 RQs); sessions play no part in the RQ index.
var benchWorld = sync.OnceValue(func() *synth.World {
	c := synth.DefaultConfig()
	c.Seed = 20210419
	c.NumTopics, c.WordsPerTopic, c.TagsPerTopic = 8, 60, 150
	c.NumTenants, c.MinRQsPerTenant, c.MaxRQsPerTenant = 24, 10, 2400
	c.NumSessions = 50
	return synth.Generate(c)
})

// benchIndex indexes the bench world's RQs as the serving catalog does and
// returns the tenant with the most RQs.
func benchIndex(tb testing.TB) (*Index, int) {
	tb.Helper()
	w := benchWorld()
	ix := NewIndex()
	perTenant := map[int]int{}
	for _, rq := range w.RQs {
		ix.Add(rq.ID, rq.Tenant, rq.Text)
		perTenant[rq.Tenant]++
	}
	big := 0
	for tenant := range w.Tenants {
		if perTenant[tenant] > perTenant[big] {
			big = tenant
		}
	}
	return ix, big
}

// clickQuery is the query Engine.Click sends after n clicks: the clicked
// tags' phrases joined by spaces.
func clickQuery(w *synth.World, rng *mat.RNG, n int) string {
	parts := make([]string, n)
	for i := range parts {
		parts[i] = w.Tags[rng.Intn(len(w.Tags))].Phrase()
	}
	return strings.Join(parts, " ")
}

func TestSearchMatchesReference(t *testing.T) {
	ix, big := benchIndex(t)
	w := benchWorld()
	post := referencePostings(ix)
	rng := mat.NewRNG(7)
	var queries []string
	for n := 1; n <= 8; n++ {
		for i := 0; i < 4; i++ {
			q := clickQuery(w, rng, n)
			queries = append(queries, q, q+" "+q) // and every term repeated
		}
	}
	queries = append(queries, "", "   ", "zzzunknown", "How do I RESET my password?!", "支付宝 password 支付宝")
	tenants := []int{-1, big, 0, len(w.Tenants) + 5}
	for _, q := range queries {
		for _, tenant := range tenants {
			for _, k := range []int{0, 1, 5, 10, 40} {
				got, want := ix.Search(q, tenant, k), referenceSearch(ix, post, q, tenant, k)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("Search(%q, tenant %d, k %d):\n got %v\nwant %v", q, tenant, k, got, want)
				}
			}
		}
	}
}

// TestSearchMatchesReferenceAfterEdits replays the comparison on an index
// that has seen replacements and deletions, including re-adding ids whose
// earlier documents were removed.
func TestSearchMatchesReferenceAfterEdits(t *testing.T) {
	rng := mat.NewRNG(11)
	words := []string{"password", "reset", "order", "cancel", "card", "vpn", "etc", "refund", "login", "account"}
	text := func() string {
		n := 1 + rng.Intn(6)
		parts := make([]string, n)
		for i := range parts {
			parts[i] = words[rng.Intn(len(words))]
		}
		return strings.Join(parts, " ")
	}
	ix := NewIndex()
	for step := 0; step < 400; step++ {
		id := rng.Intn(60)
		if rng.Float64() < 0.3 {
			ix.Delete(id)
		} else {
			ix.Add(id, rng.Intn(3), text())
		}
		if step%20 != 0 {
			continue
		}
		post := referencePostings(ix)
		for _, tenant := range []int{-1, 0, 1, 2} {
			for _, k := range []int{0, 1, 5, 10, 40} {
				q := text()
				got, want := ix.Search(q, tenant, k), referenceSearch(ix, post, q, tenant, k)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("step %d Search(%q, tenant %d, k %d):\n got %v\nwant %v", step, q, tenant, k, got, want)
				}
			}
		}
	}
}

func BenchmarkSearchClickQuery(b *testing.B) {
	ix, big := benchIndex(b)
	for _, n := range []int{1, 8} {
		q := clickQuery(benchWorld(), mat.NewRNG(3), n)
		b.Run(fmt.Sprintf("phrases=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ix.Search(q, big, 5)
			}
		})
	}
}
