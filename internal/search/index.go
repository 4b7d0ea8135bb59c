// Package search is the ElasticSearch substitute of the IntelliTag system
// (Section V): an in-memory inverted index with BM25 ranking used by the
// model server to retrieve RQ recall sets for user questions and for
// clicked-tag queries. It supports per-tenant filtering, which the paper's
// multi-tenant deployment requires.
package search

import (
	"cmp"
	"math"
	"slices"
	"sync"

	"intellitag/internal/textproc"
)

// Doc is an indexed document.
type Doc struct {
	ID     int
	Tenant int
	Text   string
	tokens []string
	counts map[string]int
	slot   int // dense per-index number, Search's scratch index
}

// Hit is a scored search result.
type Hit struct {
	ID    int
	Score float64
}

// posting is one document's entry in a term's postings list, carrying the
// term's frequency in it so scoring needs no per-document lookups.
type posting struct {
	doc *Doc
	tf  int
}

// Index is a thread-safe inverted index with BM25 scoring. The zero value is
// not usable; call NewIndex.
type Index struct {
	mu       sync.RWMutex
	docs     map[int]*Doc
	postings map[string][]posting // term -> documents (append order)
	totalLen int
	k1, b    float64
	slots    int   // slots handed out so far; every live doc's slot is below
	free     []int // slots of deleted docs, reused by Add
}

// NewIndex returns an empty index with standard BM25 parameters
// (k1=1.2, b=0.75).
func NewIndex() *Index {
	return &Index{
		docs:     map[int]*Doc{},
		postings: map[string][]posting{},
		k1:       1.2,
		b:        0.75,
	}
}

// Add indexes (or replaces) a document.
func (ix *Index) Add(id, tenant int, text string) {
	tokens := textproc.Tokenize(text)
	counts := map[string]int{}
	for _, t := range tokens {
		counts[t]++
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if old, ok := ix.docs[id]; ok {
		ix.removeLocked(old)
	}
	d := &Doc{ID: id, Tenant: tenant, Text: text, tokens: tokens, counts: counts}
	if n := len(ix.free); n > 0 {
		d.slot, ix.free = ix.free[n-1], ix.free[:n-1]
	} else {
		d.slot = ix.slots
		ix.slots++
	}
	ix.docs[id] = d
	ix.totalLen += len(tokens)
	for term, tf := range counts {
		ix.postings[term] = append(ix.postings[term], posting{doc: d, tf: tf})
	}
}

// Delete removes a document if present.
func (ix *Index) Delete(id int) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if d, ok := ix.docs[id]; ok {
		ix.removeLocked(d)
	}
}

func (ix *Index) removeLocked(d *Doc) {
	delete(ix.docs, d.ID)
	ix.totalLen -= len(d.tokens)
	ix.free = append(ix.free, d.slot)
	for term := range d.counts {
		list := ix.postings[term]
		for i, p := range list {
			if p.doc == d {
				ix.postings[term] = append(list[:i], list[i+1:]...)
				break
			}
		}
		if len(ix.postings[term]) == 0 {
			delete(ix.postings, term)
		}
	}
}

// Len returns the number of indexed documents.
func (ix *Index) Len() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.docs)
}

// Get returns the document with the given id, if present.
func (ix *Index) Get(id int) (*Doc, bool) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	d, ok := ix.docs[id]
	return d, ok
}

// scored is one matching document's running BM25 score.
type scored struct {
	Hit
	slot int
}

// searchScratch is the per-query working set of Search, pooled so a query
// allocates only the hit slice it returns: the model server runs one per
// click, and per-query maps were most of a click's garbage.
type searchScratch struct {
	tok   []byte   // the query token being scored
	terms []byte   // distinct query terms seen so far, concatenated
	ends  []int    // terms[ends[i-1]:ends[i]] is the i-th distinct term
	pos   []int32  // doc slot -> 1 + index into acc; 0 = not yet scored
	acc   []scored // matching documents, sorted best first before the cut
}

var scratchPool = sync.Pool{New: func() any { return new(searchScratch) }}

// seen reports whether tok is already among the query's distinct terms and
// adds it if not. Queries hold tens of terms, so a linear scan beats a map.
func (sc *searchScratch) seen(tok []byte) bool {
	start := 0
	for _, end := range sc.ends {
		if string(sc.terms[start:end]) == string(tok) {
			return true
		}
		start = end
	}
	sc.terms = append(sc.terms, tok...)
	sc.ends = append(sc.ends, len(sc.terms))
	return false
}

// rank orders hits best first: score descending, then id ascending. Ids are
// unique, so the order is total and the top k never depend on the order
// documents matched in.
func rank(a, b scored) int {
	if c := cmp.Compare(b.Score, a.Score); c != 0 {
		return c
	}
	return cmp.Compare(a.ID, b.ID)
}

// siftDown moves h[i] down until no child ranks below it, restoring a heap
// whose root is its worst-ranked element.
func siftDown(h []scored, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if r := c + 1; r < len(h) && rank(h[r], h[c]) > 0 {
			c = r
		}
		if rank(h[c], h[i]) <= 0 {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// Search returns the top-k documents for the query, ranked by BM25. A
// tenant >= 0 restricts results to that tenant (the cloud-service isolation
// requirement); tenant < 0 searches all documents; k <= 0 returns every
// match. Repeated query terms score once. Each document's score sums its
// terms' contributions in query order.
func (ix *Index) Search(query string, tenant, k int) []Hit {
	sc := scratchPool.Get().(*searchScratch)
	defer scratchPool.Put(sc)
	sc.terms, sc.ends, sc.acc = sc.terms[:0], sc.ends[:0], sc.acc[:0]
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if len(ix.docs) == 0 {
		return nil
	}
	if len(sc.pos) < ix.slots {
		sc.pos = make([]int32, ix.slots)
	}
	n := float64(len(ix.docs))
	avgLen := float64(ix.totalLen) / n
	for i := 0; ; {
		sc.tok, i = textproc.NextToken(query, i, sc.tok)
		if len(sc.tok) == 0 {
			break
		}
		if sc.seen(sc.tok) {
			continue
		}
		list := ix.postings[string(sc.tok)]
		if len(list) == 0 {
			continue
		}
		df := float64(len(list))
		idf := math.Log(1 + (n-df+0.5)/(df+0.5))
		for _, p := range list {
			d := p.doc
			if tenant >= 0 && d.Tenant != tenant {
				continue
			}
			tf := float64(p.tf)
			dl := float64(len(d.tokens))
			score := idf * tf * (ix.k1 + 1) / (tf + ix.k1*(1-ix.b+ix.b*dl/avgLen))
			j := sc.pos[d.slot]
			if j == 0 {
				sc.acc = append(sc.acc, scored{Hit: Hit{ID: d.ID}, slot: d.slot})
				j = int32(len(sc.acc))
				sc.pos[d.slot] = j
			}
			sc.acc[j-1].Score += score
		}
	}
	if len(sc.ends) == 0 {
		return nil
	}
	for _, h := range sc.acc {
		sc.pos[h.slot] = 0 // leave the scratch clean for the next query
	}
	if k <= 0 || k > len(sc.acc) {
		k = len(sc.acc)
	}
	// Keep the best k in acc[:k] as a heap with the worst of them at the
	// root, then sort only those: O(n log k), about one pass for small k.
	top := sc.acc[:k]
	for i := k/2 - 1; i >= 0; i-- {
		siftDown(top, i)
	}
	for _, h := range sc.acc[k:] {
		if rank(h, top[0]) < 0 {
			top[0] = h
			siftDown(top, 0)
		}
	}
	slices.SortFunc(top, rank)
	hits := make([]Hit, len(top))
	for i, h := range top {
		hits[i] = h.Hit
	}
	return hits
}
