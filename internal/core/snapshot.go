package core

import (
	"fmt"

	"intellitag/internal/hetgraph"
	"intellitag/internal/nn"
	"intellitag/internal/snapshot"
)

// Component names inside a committed TagRec snapshot version. The graph
// rides along with the parameters because rebuilding the model at load time
// needs the exact structure the parameters were trained against.
const (
	SnapParams     = "params.gob"
	SnapGraph      = "graph.gob"
	SnapEmbeddings = "embeddings.gob"
)

// CommitSnapshot stages the model's parameters, its training graph and the
// frozen tag-embedding table as one new store version and commits it — the
// offline half of the T+1 deployment loop. The model is frozen as a side
// effect when it was not already.
func CommitSnapshot(s *snapshot.Store, m *Model, g *hetgraph.Graph) (snapshot.Manifest, error) {
	w, err := s.Begin()
	if err != nil {
		return snapshot.Manifest{}, err
	}
	if err := m.Save(w.Path(SnapParams)); err != nil {
		w.Abort()
		return snapshot.Manifest{}, fmt.Errorf("core: commit snapshot: %w", err)
	}
	if err := g.Save(w.Path(SnapGraph)); err != nil {
		w.Abort()
		return snapshot.Manifest{}, fmt.Errorf("core: commit snapshot: %w", err)
	}
	if err := m.SaveEmbeddings(w.Path(SnapEmbeddings)); err != nil {
		w.Abort()
		return snapshot.Manifest{}, fmt.Errorf("core: commit snapshot: %w", err)
	}
	return w.Commit()
}

// CommitChildSnapshot is CommitSnapshot with explicit lineage: the committed
// version records parent as its Parent, which is how online fine-tunes chain
// off the offline base version. The snapshot GC keeps the chain from the
// last-known-good marker to any protected child intact, so a rollback target
// is always loadable.
func CommitChildSnapshot(s *snapshot.Store, m *Model, g *hetgraph.Graph, parent string) (snapshot.Manifest, error) {
	w, err := s.BeginChild(parent)
	if err != nil {
		return snapshot.Manifest{}, err
	}
	if err := m.Save(w.Path(SnapParams)); err != nil {
		w.Abort()
		return snapshot.Manifest{}, fmt.Errorf("core: commit child snapshot: %w", err)
	}
	if err := g.Save(w.Path(SnapGraph)); err != nil {
		w.Abort()
		return snapshot.Manifest{}, fmt.Errorf("core: commit child snapshot: %w", err)
	}
	if err := m.SaveEmbeddings(w.Path(SnapEmbeddings)); err != nil {
		w.Abort()
		return snapshot.Manifest{}, fmt.Errorf("core: commit child snapshot: %w", err)
	}
	return w.Commit()
}

// LoadSnapshotVersion verifies a committed version's checksums, rebuilds the
// model from the stored graph and configuration, restores its parameters and
// restores the stored embedding table as Frozen, returning a model ready to
// serve and to fine-tune. The table is the one the offline side computed
// (Section V-B's precomputed tag embeddings): the model is built without the
// metapath neighbour cache and never runs the graph layers, so calling
// GraphEncoder.Forward on it panics. Each call returns a fresh model, so
// concurrent serving buckets never share scorer state. cfg must match the
// training-time configuration; drift fails loudly in the parameter loader
// and in the table's shape check.
func LoadSnapshotVersion(s *snapshot.Store, id string, cfg Config) (*Model, *hetgraph.Graph, error) {
	if err := s.Verify(id); err != nil {
		return nil, nil, err
	}
	graphPath, err := s.Path(id, SnapGraph)
	if err != nil {
		return nil, nil, err
	}
	g, err := hetgraph.Load(graphPath)
	if err != nil {
		return nil, nil, fmt.Errorf("core: load snapshot %s: %w", id, err)
	}
	paramsPath, err := s.Path(id, SnapParams)
	if err != nil {
		return nil, nil, err
	}
	embPath, err := s.Path(id, SnapEmbeddings)
	if err != nil {
		return nil, nil, err
	}
	m := build(cfg, g, nil, false)
	if err := m.Load(paramsPath); err != nil {
		return nil, nil, fmt.Errorf("core: load snapshot %s: %w", id, err)
	}
	frozen, err := nn.LoadMatrix(embPath)
	if err != nil {
		return nil, nil, fmt.Errorf("core: load snapshot %s: %w", id, err)
	}
	if frozen.Rows != m.NumTags || frozen.Cols != cfg.Dim {
		return nil, nil, fmt.Errorf("core: load snapshot %s: embedding table %dx%d, model wants %dx%d",
			id, frozen.Rows, frozen.Cols, m.NumTags, cfg.Dim)
	}
	m.Frozen = frozen
	return m, g, nil
}
