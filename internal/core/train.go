package core

import (
	"intellitag/internal/hetgraph"
	"intellitag/internal/mat"
	"intellitag/internal/nn"
	"intellitag/internal/obs"
	"intellitag/internal/par"
)

// TrainConfig controls TagRec optimization; defaults follow the paper
// (Adam, lr 0.001, weight decay 0.01, linear LR decay).
type TrainConfig struct {
	Epochs      int
	LR          float64
	WeightDecay float64
	ClipNorm    float64
	Seed        int64
	// PretrainEpochs controls the graph-encoder link-prediction warmup of
	// TrainStatic/TrainFull (longer pretraining over-smooths neighbor
	// embeddings; one epoch suffices to organize the space).
	PretrainEpochs int
	// JointEpochs controls the final end-to-end phase of TrainFull
	// (0 means 2*Epochs — co-adapting graph and sequence layers converges
	// more slowly than either stage alone).
	JointEpochs int
	// BatchSize is the number of examples per Adam step, matching the
	// mini-batched updates of the original BERT4Rec/SR-GNN recipes. <= 1
	// keeps the legacy per-sample loop.
	BatchSize int
	// Workers bounds the goroutines running per-example forward/backward
	// within a batch; <= 0 selects all CPUs. Because every batch slot owns
	// its gradient buffer and slots merge in fixed order, the trained
	// parameters are bit-identical at any worker count for a given seed and
	// batch size.
	Workers int
	// Observer, when set, receives one record per finished epoch — the
	// structured run-log hook. Purely observational: it sees loss, step
	// timing, grad norm and pool hit-rate but must not touch training state.
	Observer func(obs.EpochRecord)
	// Registry, when set, receives live training gauges (epoch, loss, step
	// latency, grad norm, worker-pool queue depths) under intellitag_train_*
	// and intellitag_par_* series.
	Registry *obs.Registry
}

// DefaultTrainConfig returns the paper's optimizer settings.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{Epochs: 6, LR: 1e-3, WeightDecay: 0.01, ClipNorm: 5, Seed: 99, PretrainEpochs: 1}
}

func (cfg TrainConfig) batchSize() int {
	if cfg.BatchSize < 1 {
		return 1
	}
	return cfg.BatchSize
}

// Build constructs a graph encoder + model pair from a heterogeneous graph,
// wiring the ablation flags into both levels. initFeatures (optional) seeds
// the node features with text-derived vectors.
func Build(cfg Config, graph *hetgraph.Graph, initFeatures *mat.Matrix) *Model {
	return build(cfg, graph, initFeatures, true)
}

// build is Build with the metapath neighbour cache optional. Without it the
// graph layers cannot run (GraphEncoder.Forward panics), which is what a
// model restored from a snapshot wants: it serves and fine-tunes from the
// stored embedding table, and enumerating every tag's metapath neighbours
// is most of what building costs. The cache's RNG fork is drawn either way,
// so the layers initialised after it see the same random stream.
func build(cfg Config, graph *hetgraph.Graph, initFeatures *mat.Matrix, neighbors bool) *Model {
	g := mat.NewRNG(cfg.Seed)
	cacheRNG := g.Fork()
	var cache *hetgraph.NeighborCache
	if neighbors {
		cache = hetgraph.BuildNeighborCache(graph, cfg.NeighborCap, cacheRNG)
	}
	paths := cfg.Metapaths
	if paths == nil {
		paths = hetgraph.AllMetapaths
	}
	enc := NewGraphEncoder(graph.NumTags, cfg.Dim, cfg.Heads, cache, paths, initFeatures, g)
	enc.UniformNeighbor = cfg.WithoutNeighborAttention
	enc.UniformMetapath = cfg.WithoutMetapathAttention
	enc.Workers = cfg.Workers
	return NewModel(cfg, enc, g)
}

// TrainEndToEnd trains the model with Cloze-style masked prediction
// (mask proportion per config, as in BERT4Rec and the paper) propagating
// gradients through the sequence layers into the graph layers — the paper's
// end-to-end mode. sessions are click sequences of tag ids. Returns the mean
// loss of the final epoch.
func TrainEndToEnd(m *Model, sessions [][]int, cfg TrainConfig) float64 {
	return train(m, sessions, cfg, false)
}

// TrainSequenceOnly trains only the sequence-side parameters, leaving tag
// embeddings fixed — stage two of the static IntelliTag_st variant. The
// model must be frozen (Freeze) first so embeddings come from the lookup
// table.
func TrainSequenceOnly(m *Model, sessions [][]int, cfg TrainConfig) float64 {
	return train(m, sessions, cfg, true)
}

func train(m *Model, sessions [][]int, cfg TrainConfig, seqOnly bool) float64 {
	if cfg.batchSize() == 1 {
		return trainPerSample(m, sessions, cfg, seqOnly)
	}
	return trainBatched(m, sessions, cfg, seqOnly)
}

// stageName labels a sequence-training run for telemetry: "seq" for the
// frozen-embedding stage, "e2e" for end-to-end.
func stageName(seqOnly bool) string {
	if seqOnly {
		return "seq"
	}
	return "e2e"
}

// trainPerSample is the legacy per-sample Adam loop (BatchSize <= 1), kept
// as its own path so existing seeded runs reproduce exactly.
func trainPerSample(m *Model, sessions [][]int, cfg TrainConfig, seqOnly bool) float64 {
	params := m.AllParams()
	if seqOnly {
		params = m.SeqParams()
	}
	opt := nn.NewAdam(cfg.LR, cfg.WeightDecay)
	rng := mat.NewRNG(cfg.Seed)
	m.SetTrain(true)
	tel := newTrainTelemetry(cfg, stageName(seqOnly), nil)
	totalSteps := cfg.Epochs * len(sessions)
	step := 0
	var lastLoss float64
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		perm := rng.Perm(len(sessions))
		var epochLoss float64
		var counted int
		for _, si := range perm {
			session := clipHistory(sessions[si], m.Cfg.MaxLen)
			if len(session) == 0 {
				continue
			}
			opt.SetLR(nn.LinearDecay(cfg.LR, step, totalSteps))
			step++
			tel.stepBegin()

			// Cloze masking: each position masked with prob MaskProb; always
			// at least the final position (the next-click objective).
			masked := map[int]bool{}
			for i := range session {
				if rng.Float64() < m.Cfg.MaskProb {
					masked[i] = true
				}
			}
			masked[len(session)-1] = true

			zeroGrads(params)
			loss := clozeStep(m, session, masked)
			norm := nn.ClipGradNorm(params, cfg.ClipNorm)
			opt.Step(params)
			tel.stepEnd(norm)
			epochLoss += loss
			counted++
		}
		if counted > 0 {
			lastLoss = epochLoss / float64(counted)
		}
		tel.epochEnd(epoch, lastLoss)
	}
	m.SetTrain(false)
	return lastLoss
}

// clozeExample is one prepared batch slot: all of its randomness (mask set,
// dropout seed) is drawn on the main goroutine before fan-out.
type clozeExample struct {
	session []int
	masked  map[int]bool
	seed    int64
}

// trainBatched runs mini-batched Cloze training: each batch fans its
// examples out over the worker pool, one replica model per batch slot, and
// merges the per-slot gradients in slot order before a single Adam step.
// The merge order — and therefore the summed gradient, clipping and final
// parameters — depends only on the seed and batch size, never on Workers.
func trainBatched(m *Model, sessions [][]int, cfg TrainConfig, seqOnly bool) float64 {
	params := m.AllParams()
	if seqOnly {
		params = m.SeqParams()
	}
	batch := cfg.batchSize()
	pool := par.New(cfg.Workers)
	opt := nn.NewAdam(cfg.LR, cfg.WeightDecay)
	rng := mat.NewRNG(cfg.Seed)
	m.SetTrain(true)
	tel := newTrainTelemetry(cfg, stageName(seqOnly), pool)

	nonEmpty := 0
	for _, s := range sessions {
		if len(s) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty == 0 {
		m.SetTrain(false)
		return 0
	}
	numBatches := (nonEmpty + batch - 1) / batch
	totalSteps := cfg.Epochs * numBatches

	replicas := make([]*Model, batch)
	repParams := make([][]*nn.Param, batch)
	for j := range replicas {
		r := m.Replicate()
		r.SetTrain(true)
		replicas[j] = r
		if seqOnly {
			repParams[j] = r.SeqParams()
		} else {
			repParams[j] = r.AllParams()
		}
	}

	step := 0
	var lastLoss float64
	losses := make([]float64, batch)
	examples := make([]clozeExample, 0, batch)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		perm := rng.Perm(len(sessions))
		var epochLoss float64
		var counted int
		idx := 0
		for idx < len(perm) {
			examples = examples[:0]
			for idx < len(perm) && len(examples) < batch {
				session := clipHistory(sessions[perm[idx]], m.Cfg.MaxLen)
				idx++
				if len(session) == 0 {
					continue
				}
				masked := map[int]bool{}
				for i := range session {
					if rng.Float64() < m.Cfg.MaskProb {
						masked[i] = true
					}
				}
				masked[len(session)-1] = true
				examples = append(examples, clozeExample{session: session, masked: masked, seed: rng.Int63()})
			}
			bl := len(examples)
			if bl == 0 {
				continue
			}
			opt.SetLR(nn.LinearDecay(cfg.LR, step, totalSteps))
			step++
			tel.stepBegin()
			zeroGrads(params)
			pool.For(bl, func(j int) {
				ex := examples[j]
				r := replicas[j]
				r.Enc.SetDropoutRNG(mat.NewRNG(ex.seed))
				losses[j] = clozeStep(r, ex.session, ex.masked)
			})
			for j := 0; j < bl; j++ {
				nn.MergeGrads(params, repParams[j])
				epochLoss += losses[j]
			}
			counted += bl
			nn.ScaleGrads(params, 1/float64(bl))
			norm := nn.ClipGradNorm(params, cfg.ClipNorm)
			opt.Step(params)
			tel.stepEnd(norm)
		}
		if counted > 0 {
			lastLoss = epochLoss / float64(counted)
		}
		tel.epochEnd(epoch, lastLoss)
	}
	m.SetTrain(false)
	return lastLoss
}

// clozeStep runs one example's forward/backward on the given model (master
// or replica), accumulating gradients into that model's parameters, and
// returns the mask-averaged loss.
func clozeStep(m *Model, session []int, masked map[int]bool) float64 {
	logits, backward := m.seqForward(session, masked)
	dLogits := mat.Shared.Get(len(session), m.NumTags)
	var loss float64
	for i := range session {
		if !masked[i] {
			continue
		}
		loss += nn.SoftmaxCrossEntropyInto(logits.Row(i), session[i], dLogits.Row(i))
	}
	scale := 1 / float64(len(masked))
	mat.ScaleInPlace(dLogits, scale)
	backward(dLogits)
	mat.Shared.Put(dLogits)
	return loss * scale
}

func zeroGrads(params []*nn.Param) {
	for _, p := range params {
		p.ZeroGrad()
	}
}

// linkEdge is one link-prediction training pair with its pre-drawn negative
// samples (drawn sequentially on the main goroutine so the RNG stream is
// identical at every batch size and worker count).
type linkEdge struct {
	a, b int
	negs []int
}

// PretrainGraph trains the graph encoder alone with a link-prediction
// objective — stage one of IntelliTag_st: for each clk edge (a,b), raise
// sigma(z_a . z_b) against sampled negatives. Batches follow the same
// slot-replica / ordered-merge scheme as trainBatched. Returns the final
// epoch loss.
func PretrainGraph(e *GraphEncoder, graph *hetgraph.Graph, cfg TrainConfig, negatives int) float64 {
	type pair struct{ a, b int }
	var edges []pair
	for t := 0; t < graph.NumTags; t++ {
		for _, n := range graph.CoClickedTags(hetgraph.NodeID(t)) {
			if int(n) > t {
				edges = append(edges, pair{t, int(n)})
			}
		}
		for _, m := range hetgraph.AllMetapaths[1:] { // structural positives
			for _, n := range e.Neighbors.Neighbors(hetgraph.NodeID(t), m) {
				if int(n) > t {
					edges = append(edges, pair{t, int(n)})
					break // one structural positive per path keeps this cheap
				}
			}
		}
	}
	if len(edges) == 0 {
		return 0
	}
	batch := cfg.batchSize()
	pool := par.New(cfg.Workers)
	opt := nn.NewAdam(cfg.LR, cfg.WeightDecay)
	rng := mat.NewRNG(cfg.Seed + 7)
	params := e.Params()
	tel := newTrainTelemetry(cfg, "pretrain", pool)

	replicas := make([]*GraphEncoder, batch)
	repParams := make([][]*nn.Param, batch)
	for j := range replicas {
		r := e.Replicate()
		replicas[j] = r
		repParams[j] = r.Params()
	}

	losses := make([]float64, batch)
	slots := make([]linkEdge, 0, batch)
	var lastLoss float64
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		perm := rng.Perm(len(edges))
		var epochLoss float64
		for start := 0; start < len(perm); start += batch {
			end := start + batch
			if end > len(perm) {
				end = len(perm)
			}
			slots = slots[:0]
			for _, ei := range perm[start:end] {
				ed := edges[ei]
				negs := make([]int, negatives)
				for k := range negs {
					negs[k] = rng.Intn(e.NumTags)
				}
				slots = append(slots, linkEdge{a: ed.a, b: ed.b, negs: negs})
			}
			bl := len(slots)
			tel.stepBegin()
			zeroGrads(params)
			pool.For(bl, func(j int) {
				losses[j] = linkPredictionStep(replicas[j], slots[j])
			})
			for j := 0; j < bl; j++ {
				nn.MergeGrads(params, repParams[j])
				epochLoss += losses[j]
			}
			nn.ScaleGrads(params, 1/float64(bl))
			norm := nn.ClipGradNorm(params, cfg.ClipNorm)
			opt.Step(params)
			tel.stepEnd(norm)
		}
		lastLoss = epochLoss / float64(len(edges))
		tel.epochEnd(epoch, lastLoss)
	}
	return lastLoss
}

// linkPredictionStep accumulates one edge's link-prediction gradients into
// enc's parameters and returns its loss. Negatives colliding with either
// endpoint are skipped (their draw was still consumed, preserving the
// legacy RNG stream).
func linkPredictionStep(enc *GraphEncoder, ed linkEdge) float64 {
	za, ca := enc.Forward(ed.a)
	zb, cb := enc.Forward(ed.b)
	dza := mat.Shared.GetVec(enc.Dim)
	dzb := mat.Shared.GetVec(enc.Dim)
	// Positive pair.
	loss, dPos := nn.BinaryCrossEntropy(mat.Dot(za, zb), 1)
	mat.AXPY(dPos, zb, dza)
	mat.AXPY(dPos, za, dzb)
	// Negatives against a.
	for _, neg := range ed.negs {
		if neg == ed.a || neg == ed.b {
			continue
		}
		zn, cn := enc.Forward(neg)
		ln, dNeg := nn.BinaryCrossEntropy(mat.Dot(za, zn), 0)
		loss += ln
		mat.AXPY(dNeg, zn, dza)
		dzn := mat.Shared.GetVec(enc.Dim)
		mat.AXPY(dNeg, za, dzn)
		enc.Backward(dzn, cn) // releases cn; zn is dead past this point
		mat.Shared.PutVec(dzn)
	}
	enc.Backward(dza, ca)
	enc.Backward(dzb, cb)
	mat.Shared.PutVec(dza)
	mat.Shared.PutVec(dzb)
	return loss
}

func pretrainEpochs(cfg TrainConfig) int {
	if cfg.PretrainEpochs > 0 {
		return cfg.PretrainEpochs
	}
	return 1
}

// TrainStatic runs the full IntelliTag_st recipe: pretrain the graph
// encoder, freeze its embeddings, then train the sequence layers on top.
func TrainStatic(m *Model, graph *hetgraph.Graph, sessions [][]int, cfg TrainConfig) float64 {
	pre := cfg
	pre.Epochs = pretrainEpochs(cfg)
	PretrainGraph(m.Graph, graph, pre, 3)
	m.Freeze()
	return TrainSequenceOnly(m, sessions, cfg)
}

// TrainFull runs the paper's end-to-end IntelliTag recipe (Section IV-D):
// the same pipeline as the static variant — link-prediction pretraining of
// the graph layers, then sequence training over their embeddings — after
// which, "different from the traditional step-by-step training pipeline",
// the sequence loss further adjusts the values of the tag embeddings,
// propagating gradient errors into the shareable graph-based layers.
func TrainFull(m *Model, graph *hetgraph.Graph, sessions [][]int, cfg TrainConfig) float64 {
	pre := cfg
	pre.Epochs = pretrainEpochs(cfg)
	PretrainGraph(m.Graph, graph, pre, 3)
	m.Freeze()
	TrainSequenceOnly(m, sessions, cfg)
	m.Unfreeze()
	joint := cfg
	joint.Epochs = cfg.JointEpochs
	if joint.Epochs == 0 {
		joint.Epochs = 2 * cfg.Epochs
	}
	return TrainEndToEnd(m, sessions, joint)
}

// ExpandPrefixes converts sessions into every next-click training instance
// (all prefixes of length >= 2). The offline trainers feed every sequence
// model the same expanded set so comparisons are apples-to-apples.
func ExpandPrefixes(sessions [][]int) [][]int {
	var out [][]int
	for _, s := range sessions {
		for i := 2; i <= len(s); i++ {
			out = append(out, s[:i])
		}
	}
	return out
}
