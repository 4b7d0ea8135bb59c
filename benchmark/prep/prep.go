// Package prep builds the benchmark's fixed world once per work directory:
// a synthetic world large enough to cross the serving tier's ANN threshold,
// one trained model committed as snapshot v1 and a sequence-side fine-tune
// committed as its child v2 (same embedding digest, as the online learner's
// rounds produce). Everything here depends on the fixed Config only — never
// on a workload seed — so a prepared directory is reused by every run.
package prep

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"intellitag/internal/core"
	"intellitag/internal/search"
	"intellitag/internal/serving"
	"intellitag/internal/snapshot"
	"intellitag/internal/synth"
)

// Config is everything the prepared world depends on. Its digest names the
// prepared directory, so changing any field prepares afresh.
type Config struct {
	World synth.Config
	Model core.Config
	// Overrides of core.DefaultTrainConfig / core.DefaultFineTuneConfig.
	TrainEpochs    int
	TrainBatch     int
	FineTuneEpochs int
	// TrainFrac of the world's sessions train v1; the rest fine-tune v2.
	TrainFrac float64
	// Format is bumped when the prepared directory's layout changes.
	Format int
}

// BenchConfig is the measured world: 8 topics x 150 tags, 24 tenants whose
// catalogs run from ~550 tags down to ~140, so the larger ones sit above the
// serving default MinCatalog = 256 (ANN path) and the smaller ones below it
// (exhaustive path). Model size follows the server's -fast setting. The
// world is kept to 1 200 tags and given 10 000 sessions because the model
// must learn the click chains within a minute of training for hit_at_5 to be
// more than noise: at 3 200 tags the same minute leaves it at 0.015.
func BenchConfig() Config {
	w := synth.DefaultConfig()
	w.Seed = 20210419
	w.NumTopics = 8
	w.WordsPerTopic = 60
	w.TagsPerTopic = 150
	w.NumTenants = 24
	w.MinRQsPerTenant = 10
	w.MaxRQsPerTenant = 2400
	w.NumSessions = 10000
	c := withModel(w)
	c.TrainEpochs, c.TrainBatch = 4, 4
	return c
}

// SmallConfig is the seconds-scale world of the tests and the -short smoke.
// No tenant reaches MinCatalog, so the ANN path never runs on it.
func SmallConfig() Config {
	w := synth.SmallConfig()
	w.Seed = 20210419
	return withModel(w)
}

// UntrainedConfig is BenchConfig's world — the same tenants and catalogs,
// which are generated before the sessions and do not depend on their number
// — with few sessions and no training: what tests serve when they need
// catalogs on both sides of MinCatalog within seconds.
func UntrainedConfig() Config {
	c := BenchConfig()
	c.World.NumSessions = 300
	c.TrainEpochs = 0
	return c
}

// Named returns the configuration a -world flag names.
func Named(name string) (Config, error) {
	switch name {
	case "bench":
		return BenchConfig(), nil
	case "small":
		return SmallConfig(), nil
	case "untrained":
		return UntrainedConfig(), nil
	}
	return Config{}, fmt.Errorf("prep: unknown world %q (bench, small or untrained)", name)
}

func withModel(w synth.Config) Config {
	m := core.DefaultConfig()
	m.Dim, m.Heads = 16, 2
	m.Workers = 1
	return Config{World: w, Model: m, TrainEpochs: 1, TrainBatch: 1, FineTuneEpochs: 1, TrainFrac: 0.9, Format: 1}
}

// Digest is the short hex name of a configuration.
func (c Config) Digest() string {
	b, err := json.Marshal(c)
	if err != nil {
		panic("prep: config not marshalable: " + err.Error()) // plain data struct
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:6])
}

// Record is what Prepare writes last; its presence marks a complete
// directory.
type Record struct {
	Digest            string  `json:"digest"`
	V1                string  `json:"v1"`
	V2                string  `json:"v2"`
	Tags              int     `json:"tags"`
	Tenants           int     `json:"tenants"`
	RQs               int     `json:"rqs"`
	TrainSessions     int     `json:"train_sessions"`
	TrainS            float64 `json:"train_s"`
	TrainSamplesPerS  float64 `json:"train_samples_per_s"`
	FineTuneS         float64 `json:"finetune_s"`
	SharedEmbeddings  bool    `json:"shared_embeddings"`
	PreparedAtUnixSec int64   `json:"prepared_at_unix"`
}

const (
	recordFile = "prepare.json"
	worldFile  = "world.gob"
	storeDir   = "snapshots"
)

// Prepared is an opened prepared directory.
type Prepared struct {
	Work   string // the work directory Dir lies in
	Dir    string
	Config Config
	Record Record
	World  *synth.World
	Train  []synth.Session // the sessions v1 was trained on (catalog popularity)
	Store  *snapshot.Store
}

// Dir returns the prepared directory of cfg under work.
func Dir(work string, cfg Config) string {
	return filepath.Join(work, "world-"+cfg.Digest())
}

// Prepare returns the prepared directory for cfg under work, building it
// first when it is missing or incomplete.
func Prepare(work string, cfg Config, logf func(string, ...any)) (*Prepared, error) {
	p, err := Open(work, cfg)
	if err == nil {
		return p, nil
	}
	if !errors.Is(err, fs.ErrNotExist) {
		logf("prepare: rebuilding %s: %v", Dir(work, cfg), err)
	}
	if err := build(work, cfg, logf); err != nil {
		return nil, err
	}
	return Open(work, cfg)
}

// Open loads an already prepared directory. The error wraps fs.ErrNotExist
// when the directory has not been prepared.
func Open(work string, cfg Config) (*Prepared, error) {
	dir := Dir(work, cfg)
	raw, err := os.ReadFile(filepath.Join(dir, recordFile))
	if err != nil {
		return nil, fmt.Errorf("prep: open: %w", err)
	}
	p := &Prepared{Work: work, Dir: dir, Config: cfg}
	if err := json.Unmarshal(raw, &p.Record); err != nil {
		return nil, fmt.Errorf("prep: %s: %w", recordFile, err)
	}
	if p.Record.Digest != cfg.Digest() {
		return nil, fmt.Errorf("prep: %s holds digest %s, want %s", dir, p.Record.Digest, cfg.Digest())
	}
	wraw, err := os.ReadFile(filepath.Join(dir, worldFile))
	if err != nil {
		return nil, fmt.Errorf("prep: open world: %w", err)
	}
	p.World = new(synth.World)
	if err := gob.NewDecoder(bytes.NewReader(wraw)).Decode(p.World); err != nil {
		return nil, fmt.Errorf("prep: decode world: %w", err)
	}
	p.Train, _ = split(p.World, cfg.TrainFrac)
	if p.Store, err = snapshot.Open(filepath.Join(dir, storeDir)); err != nil {
		return nil, err
	}
	return p, nil
}

// split is the fixed train / fine-tune partition of the world's sessions.
func split(w *synth.World, trainFrac float64) (train, rest []synth.Session) {
	train, val, test := w.SplitSessions(trainFrac, 1-trainFrac)
	return train, append(val, test...)
}

func clicksOf(sessions []synth.Session) [][]int {
	out := make([][]int, len(sessions))
	for i, s := range sessions {
		out[i] = s.Clicks
	}
	return out
}

func build(work string, cfg Config, logf func(string, ...any)) error {
	dir := Dir(work, cfg)
	if err := os.RemoveAll(dir); err != nil {
		return fmt.Errorf("prep: clear %s: %w", dir, err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("prep: %w", err)
	}
	logf("prepare: generating world %s in %s", cfg.Digest(), dir)
	world := synth.Generate(cfg.World)
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(world); err != nil {
		return fmt.Errorf("prep: encode world: %w", err)
	}
	if err := os.WriteFile(filepath.Join(dir, worldFile), buf.Bytes(), 0o644); err != nil {
		return fmt.Errorf("prep: %w", err)
	}
	train, rest := split(world, cfg.TrainFrac)
	graph := world.BuildGraph(train)
	store, err := snapshot.Open(filepath.Join(dir, storeDir))
	if err != nil {
		return err
	}

	logf("prepare: training on %d sessions (%d tags)", len(train), len(world.Tags))
	model := core.Build(cfg.Model, graph, nil)
	clicks := clicksOf(train)
	start := time.Now()
	if cfg.TrainEpochs > 0 { // tests serve the untrained model: same shapes, seconds less
		tc := core.DefaultTrainConfig()
		tc.Epochs, tc.BatchSize, tc.Workers = cfg.TrainEpochs, cfg.TrainBatch, 1
		core.TrainFull(model, graph, clicks, tc)
	}
	trainS := time.Since(start).Seconds()
	model.Freeze()
	v1, err := core.CommitSnapshot(store, model, graph)
	if err != nil {
		return err
	}

	// v2: what an online round does — load the parent, adapt the sequence
	// side over the frozen embeddings, commit as a child.
	tuned, _, err := core.LoadSnapshotVersion(store, v1.ID, cfg.Model)
	if err != nil {
		return err
	}
	start = time.Now()
	fc := core.DefaultFineTuneConfig()
	fc.Epochs, fc.Workers, fc.Seed = cfg.FineTuneEpochs, 1, 7
	if _, err := core.FineTune(tuned, clicksOf(rest), fc); err != nil {
		return fmt.Errorf("prep: fine-tune: %w", err)
	}
	fineS := time.Since(start).Seconds()
	v2, err := core.CommitChildSnapshot(store, tuned, graph, v1.ID)
	if err != nil {
		return err
	}
	e1, _ := v1.Component(core.SnapEmbeddings)
	e2, _ := v2.Component(core.SnapEmbeddings)

	rec := Record{
		Digest: cfg.Digest(), V1: v1.ID, V2: v2.ID,
		Tags: len(world.Tags), Tenants: len(world.Tenants), RQs: len(world.RQs),
		TrainSessions: len(train), TrainS: trainS,
		TrainSamplesPerS:  float64(len(core.ExpandPrefixes(clicks))) / trainS,
		FineTuneS:         fineS,
		SharedEmbeddings:  e1.SHA256 == e2.SHA256,
		PreparedAtUnixSec: time.Now().Unix(),
	}
	raw, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return fmt.Errorf("prep: %w", err)
	}
	logf("prepare: trained in %.1fs, v1=%s v2=%s shared_embeddings=%v", trainS, v1.ID, v2.ID, rec.SharedEmbeddings)
	return os.WriteFile(filepath.Join(dir, recordFile), raw, 0o644)
}

// Loader returns the swap loader of cmd/intellitag-server: a fresh scorer
// per call from the stored parameters, over the world-derived catalog and RQ
// index, which carry over unchanged between versions.
func (p *Prepared) Loader(catalog serving.Catalog, index *search.Index) serving.BundleLoader {
	return func(id string) (*serving.ModelBundle, error) {
		m, _, err := core.LoadSnapshotVersion(p.Store, id, p.Config.Model)
		if err != nil {
			return nil, err
		}
		return &serving.ModelBundle{VersionID: id, Catalog: catalog, Index: index, Scorer: m}, nil
	}
}
