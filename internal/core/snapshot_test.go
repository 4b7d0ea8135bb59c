package core

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"intellitag/internal/mat"
	"intellitag/internal/nn"
	"intellitag/internal/snapshot"
)

func TestCommitAndLoadSnapshotRoundTrip(t *testing.T) {
	cfg := Config{Dim: 4, Heads: 2, Layers: 1, MaxLen: 6, MaskProb: 0.2, Seed: 3}
	g := tinyGraph()
	m := Build(cfg, g, nil)
	want := m.NextLogits([]int{0, 1})

	s, err := snapshot.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	man, err := CommitSnapshot(s, m, g)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{SnapParams, SnapGraph, SnapEmbeddings} {
		if _, ok := man.Component(name); !ok {
			t.Fatalf("manifest missing component %s: %+v", name, man)
		}
	}

	m2, g2, err := LoadSnapshotVersion(s, man.ID, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumTags != g.NumTags || g2.TotalEdges() != g.TotalEdges() {
		t.Fatalf("graph not restored: %d tags, %d edges", g2.NumTags, g2.TotalEdges())
	}
	// The stored table is the live encoder's output row for row, so the
	// restored model scores exactly as the one that was committed.
	got := m2.NextLogits([]int{0, 1})
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("logit %d: %v != %v after snapshot round trip", i, got[i], want[i])
		}
	}
	if m2.Frozen == nil {
		t.Fatal("loaded model should come back frozen")
	}
}

// TestLoadSnapshotVersionRestoresTable pins what a load builds: the stored
// embedding table, bit for bit, and no metapath neighbour cache — the graph
// layers are the offline side's job, and running them on a restored model
// fails loudly instead of dereferencing nil.
func TestLoadSnapshotVersionRestoresTable(t *testing.T) {
	cfg := Config{Dim: 4, Heads: 2, Layers: 1, MaxLen: 6, Seed: 3}
	g := tinyGraph()
	m := Build(cfg, g, nil)
	m.Freeze()
	s, err := snapshot.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	man, err := CommitSnapshot(s, m, g)
	if err != nil {
		t.Fatal(err)
	}
	m2, _, err := LoadSnapshotVersion(s, man.ID, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Graph.Neighbors != nil {
		t.Fatal("LoadSnapshotVersion built a metapath neighbour cache")
	}
	if m2.Frozen.Rows != m.Frozen.Rows || m2.Frozen.Cols != m.Frozen.Cols {
		t.Fatalf("restored table %dx%d, committed %dx%d", m2.Frozen.Rows, m2.Frozen.Cols, m.Frozen.Rows, m.Frozen.Cols)
	}
	for i, v := range m.Frozen.Data {
		if math.Float64bits(m2.Frozen.Data[i]) != math.Float64bits(v) {
			t.Fatalf("restored embedding %d = %v, committed %v", i, m2.Frozen.Data[i], v)
		}
	}
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "core.Build") {
			t.Fatalf("Forward on a restored model: recovered %q, want a panic naming core.Build", msg)
		}
	}()
	m2.Graph.Forward(0)
}

// TestLoadSnapshotVersionTiedFineTuneChild pins what a tied-projection
// fine-tune child serves. In tied mode the node-feature table X doubles as
// the output matrix, so FineTune moves X while Frozen stays put. Loading the
// child restores the table its sequence layers trained on, which differs
// from the one re-running EmbedAll over the moved X would compute.
func TestLoadSnapshotVersionTiedFineTuneChild(t *testing.T) {
	cfg := Config{Dim: 4, Heads: 2, Layers: 1, MaxLen: 6, Seed: 3, TieProjection: true}
	g := tinyGraph()
	s, err := snapshot.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	base, err := CommitSnapshot(s, Build(cfg, g, nil), g)
	if err != nil {
		t.Fatal(err)
	}
	m, mg, err := LoadSnapshotVersion(s, base.ID, cfg)
	if err != nil {
		t.Fatal(err)
	}
	table := append([]float64(nil), m.Frozen.Data...)
	x := append([]float64(nil), m.Graph.X.Value.Data...)
	fc := DefaultFineTuneConfig()
	fc.Seed = 7
	if _, err := FineTune(m, [][]int{{0, 1, 2}, {3, 4, 5}, {1, 2, 4, 0}}, fc); err != nil {
		t.Fatal(err)
	}
	if slicesEqualBits(m.Graph.X.Value.Data, x) {
		t.Fatal("tied fine-tune left X unchanged; the case under test did not arise")
	}
	child, err := CommitChildSnapshot(s, m, mg, base.ID)
	if err != nil {
		t.Fatal(err)
	}
	m2, _, err := LoadSnapshotVersion(s, child.ID, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !slicesEqualBits(m2.Frozen.Data, table) {
		t.Fatal("child did not restore the table its sequence layers trained on")
	}
	want := m.NextLogits([]int{0, 1})
	got := m2.NextLogits([]int{0, 1})
	if !slicesEqualBits(got, want) {
		t.Fatalf("child logits %v, fine-tuned model %v", got, want)
	}

	// What a loader that re-ran the graph layers would have served instead.
	paramsPath, err := s.Path(child.ID, SnapParams)
	if err != nil {
		t.Fatal(err)
	}
	recomputed := Build(cfg, g, nil)
	if err := recomputed.Load(paramsPath); err != nil {
		t.Fatal(err)
	}
	recomputed.Freeze()
	if slicesEqualBits(recomputed.Frozen.Data, table) {
		t.Fatal("EmbedAll over the fine-tuned X reproduced the stored table; the case under test did not arise")
	}
}

func slicesEqualBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestLoadSnapshotVersionRejectsTamper flips one byte in each component of
// a committed version; every one must fail the checksum, not load.
func TestLoadSnapshotVersionRejectsTamper(t *testing.T) {
	cfg := Config{Dim: 4, Heads: 2, Layers: 1, MaxLen: 6, Seed: 3}
	g := tinyGraph()
	for _, component := range []string{SnapParams, SnapGraph, SnapEmbeddings} {
		t.Run(component, func(t *testing.T) {
			s, err := snapshot.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			man, err := CommitSnapshot(s, Build(cfg, g, nil), g)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(s.Root(), man.ID, component)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)-1] ^= 1
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, _, err := LoadSnapshotVersion(s, man.ID, cfg); !errors.Is(err, snapshot.ErrChecksum) {
				t.Fatalf("tampered %s: load = %v, want ErrChecksum", component, err)
			}
		})
	}
}

// TestLoadSnapshotVersionRejectsMisshapenTable commits versions whose
// embeddings.gob passes every checksum but holds the wrong matrix: the load
// must return an error rather than serve it or panic.
func TestLoadSnapshotVersionRejectsMisshapenTable(t *testing.T) {
	cfg := Config{Dim: 4, Heads: 2, Layers: 1, MaxLen: 6, Seed: 3}
	g := tinyGraph()
	m := Build(cfg, g, nil)
	n, d := g.NumTags, cfg.Dim
	cases := []struct {
		name  string
		write func(path string) error
	}{
		{"missing row", func(p string) error { return nn.SaveMatrix(p, mat.New(n-1, d)) }},
		{"wrong width", func(p string) error { return nn.SaveMatrix(p, mat.New(n, d+1)) }},
		{"empty table", func(p string) error { return nn.SaveMatrix(p, mat.New(0, 0)) }},
		{"short data", func(p string) error {
			return nn.SaveMatrix(p, &mat.Matrix{Rows: n, Cols: d, Data: make([]float64, 3)})
		}},
		{"negative shape", func(p string) error {
			return nn.SaveMatrix(p, &mat.Matrix{Rows: -n, Cols: -d, Data: make([]float64, n*d)})
		}},
		{"two matrices", func(p string) error {
			return nn.SaveParams(p, []*nn.Param{nn.NewParam("a", n, d), nn.NewParam("b", n, d)})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := snapshot.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			w, err := s.Begin()
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Save(w.Path(SnapParams)); err != nil {
				t.Fatal(err)
			}
			if err := g.Save(w.Path(SnapGraph)); err != nil {
				t.Fatal(err)
			}
			if err := tc.write(w.Path(SnapEmbeddings)); err != nil {
				t.Fatal(err)
			}
			man, err := w.Commit()
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Verify(man.ID); err != nil {
				t.Fatalf("fixture must pass the checksums: %v", err)
			}
			if got, _, err := LoadSnapshotVersion(s, man.ID, cfg); err == nil {
				t.Fatalf("misshapen table loaded: %dx%d", got.Frozen.Rows, got.Frozen.Cols)
			}
		})
	}
}

func TestCommitSnapshotChains(t *testing.T) {
	cfg := Config{Dim: 4, Heads: 2, Layers: 1, MaxLen: 6, Seed: 3}
	g := tinyGraph()
	s, err := snapshot.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m1, err := CommitSnapshot(s, Build(cfg, g, nil), g)
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := cfg
	cfg2.Seed = 99
	m2, err := CommitSnapshot(s, Build(cfg2, g, nil), g)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Parent != m1.ID || m2.Seq != m1.Seq+1 {
		t.Fatalf("snapshot chain broken: %+v after %+v", m2, m1)
	}
	latest, err := s.Latest()
	if err != nil || latest.ID != m2.ID {
		t.Fatalf("Latest = %+v, %v", latest, err)
	}
}
