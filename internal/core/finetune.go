package core

import (
	"errors"
	"fmt"
)

// ErrNotFrozen rejects fine-tuning a model whose tag embeddings still come
// from the live graph encoder: the online loop's contract is sequence-only
// adaptation over the frozen GNN table (Section V-B's deployment split — the
// graph side retrains T+1 offline, the sequence side tracks intraday drift).
var ErrNotFrozen = errors.New("core: fine-tune requires a frozen model")

// FineTuneConfig sizes one incremental fine-tune round. It deliberately
// mirrors TrainConfig's optimizer surface but with defaults tuned for small
// intraday windows: few epochs, mini-batches, gentle learning rate.
type FineTuneConfig struct {
	Epochs    int
	LR        float64
	ClipNorm  float64
	BatchSize int
	// Workers bounds the per-batch fan-out; any value produces bit-identical
	// parameters for a given seed (the pooled loop merges slot gradients in
	// fixed order).
	Workers int
	// Seed drives masking, shuffling and dropout for the round. The online
	// learner derives it from its base seed and the stream cursor, so the
	// same event log and base seed reproduce the same weights.
	Seed int64
}

// DefaultFineTuneConfig returns the online learner's fine-tune settings.
func DefaultFineTuneConfig() FineTuneConfig {
	return FineTuneConfig{Epochs: 2, LR: 5e-4, ClipNorm: 5, BatchSize: 8, Workers: 0}
}

// FineTune runs one partial-freeze fine-tune round: sequence-side parameters
// only (positions, Transformer stack, output head), tag embeddings frozen,
// reusing the pooled mini-batch train loop. sessions are raw click sequences;
// they are prefix-expanded exactly as the offline trainers do. Returns the
// final-epoch mean loss. The model must already be frozen — the caller
// typically just loaded it from a snapshot version, which restores the
// stored table on load.
func FineTune(m *Model, sessions [][]int, cfg FineTuneConfig) (float64, error) {
	if m.Frozen == nil {
		return 0, ErrNotFrozen
	}
	if len(sessions) == 0 {
		return 0, fmt.Errorf("core: fine-tune: no sessions in window")
	}
	prefixes := ExpandPrefixes(sessions)
	if len(prefixes) == 0 {
		return 0, fmt.Errorf("core: fine-tune: window has no multi-click sessions")
	}
	tc := TrainConfig{
		Epochs:    cfg.Epochs,
		LR:        cfg.LR,
		ClipNorm:  cfg.ClipNorm,
		Seed:      cfg.Seed,
		BatchSize: cfg.BatchSize,
		Workers:   cfg.Workers,
	}
	return TrainSequenceOnly(m, prefixes, tc), nil
}
