package runner

import (
	"context"
	"fmt"

	"autosec/internal/experiments"
)

// Suite runs one full experiment suite at a seed and returns its tables.
// experiments.All is the canonical suite; cmd/benchreport builds filtered
// ones.
type Suite func(seed uint64) []*experiments.Table

// Replicate runs suite once per seed on at most workers goroutines and
// returns the per-seed table sets in seed order. Each replicate builds
// its own kernels, so per-seed output is bit-for-bit identical to a
// serial run of the same seed.
func Replicate(ctx context.Context, suite Suite, seeds []uint64, workers int) ([][]*experiments.Table, error) {
	results, err := Map(ctx, seeds, workers, func(_ context.Context, seed uint64) ([]*experiments.Table, error) {
		return suite(seed), nil
	})
	if err != nil {
		return nil, err
	}
	out := make([][]*experiments.Table, len(results))
	for i, r := range results {
		if r.Err != nil {
			return nil, fmt.Errorf("runner: seed %d: %w", r.Seed, r.Err)
		}
		out[i] = r.Value
	}
	return out, nil
}

// ReplicateAggregate is Replicate followed by experiments.Aggregate: the
// one-call multi-seed evaluation.
func ReplicateAggregate(ctx context.Context, suite Suite, seeds []uint64, workers int) ([]*experiments.Table, error) {
	perSeed, err := Replicate(ctx, suite, seeds, workers)
	if err != nil {
		return nil, err
	}
	return experiments.Aggregate(perSeed)
}
