//go:build !race

// The race detector makes sync.Pool drop items at random, so allocation
// budgets over pooled scratch only hold in a normal build.

package search

import (
	"testing"

	"intellitag/internal/mat"
)

// TestSearchAllocs is the click path's BM25 allocation budget on the
// largest bench tenant: an eight-phrase query (a session's eighth click)
// allocates only the returned hit slice.
func TestSearchAllocs(t *testing.T) {
	ix, big := benchIndex(t)
	q := clickQuery(benchWorld(), mat.NewRNG(3), 8)
	ix.Search(q, big, 5) // warm the scratch pool
	allocs := testing.AllocsPerRun(200, func() { ix.Search(q, big, 5) })
	if allocs > 1 {
		t.Fatalf("Search allocates %.1f times per query, budget 1", allocs)
	}
}
