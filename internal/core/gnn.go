// Package core implements the paper's primary contribution: the TagRec
// model. Graph-based layers extract structural information from the TagRec
// heterogeneous graph with neighbor attention (eq. 4-5) and metapath
// attention (eq. 6-7); sequence-based Transformer layers with contextual
// attention model the user's click sequence (eq. 8-12); and the two are
// trained end-to-end, with a static two-stage variant (IntelliTag_st) for
// comparison.
package core

import (
	"fmt"
	"math"
	"sync"

	"intellitag/internal/hetgraph"
	"intellitag/internal/mat"
	"intellitag/internal/nn"
	"intellitag/internal/par"
)

// leakySlope is the LeakyReLU negative slope of the neighbor attention.
const leakySlope = 0.2

// GraphEncoder computes tag embeddings z_t from trainable node features via
// per-metapath neighbor attention and metapath attention. Ablation flags
// replace an attention level with uniform weighting (Table V variants).
type GraphEncoder struct {
	Dim, Heads int
	NumTags    int

	// X holds the trainable node feature vectors x_t (one row per tag),
	// initialized from text-derived features per Section VI-A3.
	X *nn.Param
	// Wn[pathIdx][head] is the 2d x 1 neighbor-attention weight of eq. 4.
	Wn [][]*nn.Param
	// Metapath attention parameters of eq. 6-7 (hd = Heads*Dim).
	Wp *nn.Param // hd x hd
	Bp *nn.Param // 1 x hd
	Vp *nn.Param // 1 x hd
	Wl *nn.Param // d x hd
	Bl *nn.Param // 1 x d

	// Neighbors provides the cached metapath neighbor lists.
	Neighbors *hetgraph.NeighborCache
	// Paths lists the metapaths in use (normally hetgraph.AllMetapaths; a
	// subset supports metapath-ablation experiments).
	Paths []hetgraph.Metapath

	// UniformNeighbor disables neighbor attention (w/o na): neighbors are
	// averaged uniformly.
	UniformNeighbor bool
	// UniformMetapath disables metapath attention (w/o ma): path embeddings
	// are averaged uniformly.
	UniformMetapath bool

	// Workers bounds the parallelism of EmbedAll (offline batch inference);
	// <= 0 selects all CPUs, 1 keeps the sequential path.
	Workers int

	params *nn.Collector

	// Backward scratch, reused across calls. Unlike Forward (which EmbedAll
	// fans out concurrently and therefore pools its caches), Backward only
	// ever runs on one goroutine per encoder instance — the batched trainers
	// give every batch slot its own replica — so the scratch can live here.
	bwdFused []float64
	bwdH     [][]float64
	bwdBeta  []float64
	bwdSum   []float64
	bwdDa    []float64
}

// NewGraphEncoder builds a graph encoder over the cached neighbors. Node
// features are initialized from initFeatures when non-nil (rows must be
// dim-sized), otherwise randomly.
func NewGraphEncoder(numTags, dim, heads int, cache *hetgraph.NeighborCache, paths []hetgraph.Metapath, initFeatures *mat.Matrix, g *mat.RNG) *GraphEncoder {
	if len(paths) == 0 {
		paths = hetgraph.AllMetapaths
	}
	hd := heads * dim
	e := &GraphEncoder{
		Dim: dim, Heads: heads, NumTags: numTags,
		X:         nn.NewParam("gnn.X", numTags, dim),
		Wp:        nn.NewParam("gnn.Wp", hd, hd),
		Bp:        nn.NewParam("gnn.bp", 1, hd),
		Vp:        nn.NewParam("gnn.vp", 1, hd),
		Wl:        nn.NewParam("gnn.Wl", dim, hd),
		Bl:        nn.NewParam("gnn.bl", 1, dim),
		Neighbors: cache,
		Paths:     paths,
	}
	if initFeatures != nil {
		copy(e.X.Value.Data, initFeatures.Data)
	} else {
		// Unit-variance features keep the sigmoid aggregation of eq. 5 out
		// of its flat region so tag embeddings are distinguishable from the
		// first step (a smaller scale collapses every z_t to ~sigma(0)).
		e.X.InitNormal(g, 1.0)
	}
	g.Xavier(e.Wp.Value)
	g.Xavier(e.Vp.Value)
	g.Xavier(e.Wl.Value)
	for _, path := range paths {
		var headWeights []*nn.Param
		for h := 0; h < heads; h++ {
			p := nn.NewParam(fmt.Sprintf("gnn.Wn.%s.%d", path, h), 2*dim, 1)
			g.Xavier(p.Value)
			headWeights = append(headWeights, p)
		}
		e.Wn = append(e.Wn, headWeights)
	}
	e.params = nn.NewCollector()
	e.params.Add(e.X, e.Wp, e.Bp, e.Vp, e.Wl, e.Bl)
	for _, hw := range e.Wn {
		e.params.Add(hw...)
	}
	return e
}

// Params returns all trainable parameters (including node features).
func (e *GraphEncoder) Params() []*nn.Param { return e.params.Params() }

// tagForward caches everything tagBackward needs for one tag. Caches are
// drawn from tfPool and recycled — release (called by Backward, or directly
// for inference-only forwards) returns the cache with every interior slice
// intact, so steady-state Forward calls allocate nothing. A cache that is
// never released (e.g. the one captured by a TagAttention snapshot) simply
// falls to the garbage collector.
type tagForward struct {
	tag     int
	neigh   [][]int       // per path: neighbor ids (self included, first)
	attn    [][][]float64 // per path, per head: softmax attention over neigh
	preAct  [][][]float64 // per path, per head: pre-LeakyReLU scores
	sumVec  [][][]float64 // per path, per head: weighted neighbor sum s
	hPath   [][]float64   // per path: h^rho (hd)
	uPath   [][]float64   // per path: tanh(Wp h + bp)
	beta    []float64     // softmax metapath attention
	betaRaw []float64     // pre-softmax metapath scores (scratch)
	fused   []float64     // sum_rho beta_rho h^rho
	z       []float64     // the returned embedding
}

// tfPool recycles tagForward caches. Forward may run concurrently on one
// encoder (EmbedAll fans tags out over a worker pool), so per-call scratch
// cannot live on the encoder itself; each call checks a private cache out of
// the pool instead.
var tfPool = sync.Pool{New: func() any { return new(tagForward) }}

// growOuter resizes an outer slice to n entries, keeping inner slices that
// earlier calls allocated (they sit between len and cap) available for reuse.
func growOuter[T any](s [][]T, n int) [][]T {
	if cap(s) >= n {
		return s[:n]
	}
	ns := make([][]T, n)
	copy(ns, s[:cap(s)])
	return ns
}

// ensureInts resizes an int slice to n, reusing capacity; contents are
// unspecified.
func ensureInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

// ensureZero resizes a float slice to n and zeroes it.
func ensureZero(s []float64, n int) []float64 {
	s = mat.EnsureVec(s, n)
	for i := range s {
		s[i] = 0
	}
	return s
}

// release returns a forward cache to the pool. The cache, the z slice Forward
// returned with it, and every attention slice it holds become invalid.
func (e *GraphEncoder) release(c *tagForward) {
	if c != nil {
		tfPool.Put(c)
	}
}

// Forward computes z_t (a dim-vector) for one tag and returns the cache for
// Backward. Both z and the cache come from a pooled buffer: they stay valid
// until the cache is released (Backward releases it), and must be copied by
// callers that need them longer.
func (e *GraphEncoder) Forward(tag int) ([]float64, *tagForward) {
	if e.Neighbors == nil {
		panic("core: graph encoder has no metapath neighbour cache; a model restored by LoadSnapshotVersion serves its stored embedding table, build with core.Build to run the graph layers")
	}
	hd := e.Heads * e.Dim
	cache := tfPool.Get().(*tagForward)
	cache.tag = tag
	nPaths := len(e.Paths)
	cache.neigh = growOuter(cache.neigh, nPaths)
	cache.attn = growOuter(cache.attn, nPaths)
	cache.preAct = growOuter(cache.preAct, nPaths)
	cache.sumVec = growOuter(cache.sumVec, nPaths)
	cache.hPath = growOuter(cache.hPath, nPaths)
	cache.uPath = growOuter(cache.uPath, nPaths)
	xt := e.X.Value.Row(tag)

	for pi, path := range e.Paths {
		nb := e.Neighbors.Neighbors(hetgraph.NodeID(tag), path)
		// Self-loop keeps the aggregation well-defined for isolated tags and
		// lets the target contribute to its own embedding.
		ids := ensureInts(cache.neigh[pi], len(nb)+1)
		ids[0] = tag
		for i, n := range nb {
			ids[i+1] = int(n)
		}
		cache.neigh[pi] = ids

		h := mat.EnsureVec(cache.hPath[pi], hd)
		attnPath := growOuter(cache.attn[pi], e.Heads)
		prePath := growOuter(cache.preAct[pi], e.Heads)
		sumPath := growOuter(cache.sumVec[pi], e.Heads)
		for head := 0; head < e.Heads; head++ {
			w := e.Wn[pi][head].Value.Data // 2d
			pre := mat.EnsureVec(prePath[head], len(ids))
			for i, n := range ids {
				xn := e.X.Value.Row(n)
				var s float64
				for j := 0; j < e.Dim; j++ {
					s += w[j] * xt[j]
					s += w[e.Dim+j] * xn[j]
				}
				pre[i] = leaky(s)
			}
			a := mat.EnsureVec(attnPath[head], len(ids))
			if e.UniformNeighbor {
				u := 1 / float64(len(ids))
				for i := range a {
					a[i] = u
				}
			} else {
				mat.SoftmaxInto(pre, a)
			}
			sum := ensureZero(sumPath[head], e.Dim)
			for i, n := range ids {
				mat.AXPY(a[i], e.X.Value.Row(n), sum)
			}
			out := h[head*e.Dim : (head+1)*e.Dim]
			for j, v := range sum {
				out[j] = nn.Sigmoid(v)
			}
			attnPath[head], prePath[head], sumPath[head] = a, pre, sum
		}
		cache.attn[pi] = attnPath
		cache.preAct[pi] = prePath
		cache.sumVec[pi] = sumPath
		cache.hPath[pi] = h
	}

	// Metapath attention (eq. 6-7).
	betaRaw := mat.EnsureVec(cache.betaRaw, nPaths)
	cache.betaRaw = betaRaw
	for pi := range e.Paths {
		u := mat.EnsureVec(cache.uPath[pi], hd)
		for i := 0; i < hd; i++ {
			u[i] = math.Tanh(mat.Dot(e.Wp.Value.Row(i), cache.hPath[pi]) + e.Bp.Value.At(0, i))
		}
		cache.uPath[pi] = u
		betaRaw[pi] = mat.Dot(e.Vp.Value.Row(0), u)
	}
	beta := mat.EnsureVec(cache.beta, nPaths)
	if e.UniformMetapath {
		u := 1 / float64(nPaths)
		for i := range beta {
			beta[i] = u
		}
	} else {
		mat.SoftmaxInto(betaRaw, beta)
	}
	cache.beta = beta
	fused := ensureZero(cache.fused, hd)
	for pi := range e.Paths {
		mat.AXPY(beta[pi], cache.hPath[pi], fused)
	}
	cache.fused = fused

	// Residual connection from the node's own features: the attention
	// aggregate carries neighborhood structure, while the residual keeps
	// each tag's identity linearly recoverable — without it, hub tags'
	// embeddings collapse toward their neighborhood mean and the sequence
	// layers cannot read which tag was actually clicked (a standard GNN
	// residual, documented in DESIGN.md).
	z := mat.EnsureVec(cache.z, e.Dim)
	for i := 0; i < e.Dim; i++ {
		z[i] = mat.Dot(e.Wl.Value.Row(i), fused) + e.Bl.Value.At(0, i) + xt[i]
	}
	cache.z = z
	return z, cache
}

// Backward propagates dz for one tag through metapath and neighbor attention
// into all parameters and node features. It releases the cache: neither c nor
// the z returned with it may be used afterwards.
func (e *GraphEncoder) Backward(dz []float64, c *tagForward) {
	hd := e.Heads * e.Dim
	// Residual path: dz flows straight into the node's own features.
	mat.AXPY(1, dz, e.X.Grad.Row(c.tag))
	// z = Wl fused + bl (+ x_t).
	dFused := ensureZero(e.bwdFused, hd)
	e.bwdFused = dFused
	for i := 0; i < e.Dim; i++ {
		g := dz[i]
		if g == 0 {
			continue
		}
		mat.AXPY(g, c.fused, e.Wl.Grad.Row(i))
		e.Bl.Grad.Data[i] += g
		mat.AXPY(g, e.Wl.Value.Row(i), dFused)
	}

	e.bwdH = growOuter(e.bwdH, len(e.Paths))
	dH := e.bwdH
	dBeta := mat.EnsureVec(e.bwdBeta, len(e.Paths))
	e.bwdBeta = dBeta
	for pi := range e.Paths {
		dH[pi] = ensureZero(dH[pi], hd)
		mat.AXPY(c.beta[pi], dFused, dH[pi])
		dBeta[pi] = mat.Dot(dFused, c.hPath[pi])
	}
	if !e.UniformMetapath {
		// Softmax backward over beta.
		var dot float64
		for pi := range e.Paths {
			dot += dBeta[pi] * c.beta[pi]
		}
		for pi := range e.Paths {
			dRaw := c.beta[pi] * (dBeta[pi] - dot)
			if dRaw == 0 {
				continue
			}
			// betaRaw = vp . u; u = tanh(Wp h + bp).
			u := c.uPath[pi]
			mat.AXPY(dRaw, u, e.Vp.Grad.Row(0))
			for i := 0; i < hd; i++ {
				dU := dRaw * e.Vp.Value.At(0, i)
				dPre := dU * (1 - u[i]*u[i])
				if dPre == 0 {
					continue
				}
				mat.AXPY(dPre, c.hPath[pi], e.Wp.Grad.Row(i))
				e.Bp.Grad.Data[i] += dPre
				mat.AXPY(dPre, e.Wp.Value.Row(i), dH[pi])
			}
		}
	}

	// Neighbor attention backward per path, per head.
	xt := e.X.Value.Row(c.tag)
	dxt := e.X.Grad.Row(c.tag)
	for pi := range e.Paths {
		ids := c.neigh[pi]
		for head := 0; head < e.Heads; head++ {
			dOut := dH[pi][head*e.Dim : (head+1)*e.Dim]
			sum := c.sumVec[pi][head]
			a := c.attn[pi][head]
			// out = sigmoid(sum).
			dSum := mat.EnsureVec(e.bwdSum, e.Dim)
			e.bwdSum = dSum
			for j := range dSum {
				s := nn.Sigmoid(sum[j])
				dSum[j] = dOut[j] * s * (1 - s)
			}
			// sum = sum_n a_n x_n.
			da := mat.EnsureVec(e.bwdDa, len(ids))
			e.bwdDa = da
			for i, n := range ids {
				da[i] = mat.Dot(dSum, e.X.Value.Row(n))
				mat.AXPY(a[i], dSum, e.X.Grad.Row(n))
			}
			if e.UniformNeighbor {
				continue
			}
			// Softmax backward over a.
			var dot float64
			for i := range ids {
				dot += da[i] * a[i]
			}
			w := e.Wn[pi][head].Value.Data
			wGrad := e.Wn[pi][head].Grad.Data
			for i, n := range ids {
				dPre := a[i] * (da[i] - dot)
				if dPre == 0 {
					continue
				}
				// LeakyReLU backward.
				if c.preAct[pi][head][i] < 0 {
					dPre *= leakySlope
				}
				xn := e.X.Value.Row(n)
				dxn := e.X.Grad.Row(n)
				for j := 0; j < e.Dim; j++ {
					wGrad[j] += dPre * xt[j]
					wGrad[e.Dim+j] += dPre * xn[j]
					dxt[j] += dPre * w[j]
					dxn[j] += dPre * w[e.Dim+j]
				}
			}
		}
	}
	e.release(c)
}

// EmbedAll runs Forward for every tag and returns the NumTags x Dim matrix
// of embeddings — the offline inference step whose output the deployment
// uploads to the online model servers (Section V-B). Rows are computed on
// the encoder's worker pool; each tag's embedding is independent and written
// to its own row, so the result is identical at any worker count.
func (e *GraphEncoder) EmbedAll() *mat.Matrix {
	out := mat.New(e.NumTags, e.Dim)
	par.New(e.Workers).For(e.NumTags, func(t int) {
		z, c := e.Forward(t)
		out.SetRow(t, z)
		e.release(c)
	})
	return out
}

// Replicate returns an encoder whose parameters alias e's values but own
// private gradient buffers, for concurrent per-example backward passes. The
// neighbor cache, metapath list and ablation flags are shared (read-only).
func (e *GraphEncoder) Replicate() *GraphEncoder {
	r := &GraphEncoder{
		Dim: e.Dim, Heads: e.Heads, NumTags: e.NumTags,
		X:  e.X.Shadow(),
		Wp: e.Wp.Shadow(), Bp: e.Bp.Shadow(), Vp: e.Vp.Shadow(),
		Wl: e.Wl.Shadow(), Bl: e.Bl.Shadow(),
		Neighbors:       e.Neighbors,
		Paths:           e.Paths,
		UniformNeighbor: e.UniformNeighbor,
		UniformMetapath: e.UniformMetapath,
		Workers:         1,
	}
	for _, hw := range e.Wn {
		shadowed := make([]*nn.Param, len(hw))
		for h, p := range hw {
			shadowed[h] = p.Shadow()
		}
		r.Wn = append(r.Wn, shadowed)
	}
	// Rebuild the collector in the exact order of NewGraphEncoder so the
	// replica's Params() align index-by-index with the master's for the
	// ordered gradient merge.
	r.params = nn.NewCollector()
	r.params.Add(r.X, r.Wp, r.Bp, r.Vp, r.Wl, r.Bl)
	for _, hw := range r.Wn {
		r.params.Add(hw...)
	}
	return r
}

// TagAttention is a snapshot of both attention levels for one tag, extracted
// from a single Forward call so the two Figure 5 signals never recompute the
// encoder per query.
type TagAttention struct {
	heads int
	paths []hetgraph.Metapath
	beta  []float64
	neigh [][]int
	attn  [][][]float64
}

// Attention runs one Forward for the tag and captures both attention levels.
func (e *GraphEncoder) Attention(tag int) *TagAttention {
	_, cache := e.Forward(tag)
	return &TagAttention{heads: e.Heads, paths: e.Paths, beta: cache.beta, neigh: cache.neigh, attn: cache.attn}
}

// MetapathWeights returns a copy of the softmax metapath attention values —
// the Figure 5(b) case-study signal.
func (a *TagAttention) MetapathWeights() []float64 {
	return append([]float64(nil), a.beta...)
}

// NeighborWeights returns copies of the neighbor ids (self first) and
// head-averaged attention values under one metapath — the Figure 5(a)
// signal. Both are nil when the path is not in the encoder's set.
func (a *TagAttention) NeighborWeights(path hetgraph.Metapath) ([]int, []float64) {
	for pi, p := range a.paths {
		if p != path {
			continue
		}
		ids := append([]int(nil), a.neigh[pi]...)
		avg := make([]float64, len(ids))
		for head := 0; head < a.heads; head++ {
			for i, w := range a.attn[pi][head] {
				avg[i] += w / float64(a.heads)
			}
		}
		return ids, avg
	}
	return nil, nil
}

// MetapathWeights returns the metapath attention for one tag; callers that
// also need NeighborWeights should take one Attention snapshot instead of
// paying a Forward per query.
func (e *GraphEncoder) MetapathWeights(tag int) []float64 {
	return e.Attention(tag).MetapathWeights()
}

// NeighborWeights returns the neighbor ids (self first) and head-averaged
// attention values for a tag under one metapath.
func (e *GraphEncoder) NeighborWeights(tag int, path hetgraph.Metapath) ([]int, []float64) {
	return e.Attention(tag).NeighborWeights(path)
}

func leaky(v float64) float64 {
	if v > 0 {
		return v
	}
	return leakySlope * v
}
