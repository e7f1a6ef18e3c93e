// Package runner is the deterministic parallel replication harness: it
// shards seeds across a bounded worker pool, runs one replicate per seed
// (each on its own sim.Kernel — the experiment constructors build their
// own), and merges the per-seed experiments.Table results into
// mean / stddev / 95% confidence-interval columns with per-seed ranges.
//
// Determinism is preserved under parallelism by construction: replicates
// never share state (the simulation library has no package-level mutable
// variables, and every kernel's random streams derive only from its
// seed), and the merge stage folds results in seed order, not completion
// order. Running with -par 1 and -par N therefore produces byte-identical
// aggregated tables; internal/runner's tests and `go test -race ./...`
// enforce both halves of that claim.
package runner

import (
	"context"
	"fmt"
	"runtime"
	"sync"
)

// Seeds returns n consecutive seeds starting at base: the conventional
// seed set for an n-replicate run.
func Seeds(base uint64, n int) []uint64 {
	if n <= 0 {
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = base + uint64(i)
	}
	return out
}

// Result pairs one replicate's output with the seed that produced it.
type Result[T any] struct {
	Seed  uint64
	Value T
	Err   error
}

// Map runs fn once per seed on a pool of at most workers goroutines and
// returns the results in seed order, regardless of completion order.
// workers <= 0 means GOMAXPROCS. A replicate that panics is reported as
// that result's Err rather than crashing the pool. Map returns an error
// only when ctx is cancelled; replicates not yet started at cancellation
// carry ctx's error in their Result.
func Map[T any](ctx context.Context, seeds []uint64, workers int, fn func(ctx context.Context, seed uint64) (T, error)) ([]Result[T], error) {
	results := make([]Result[T], len(seeds))
	for i, s := range seeds {
		results[i].Seed = s
	}
	if len(seeds) == 0 {
		return results, ctx.Err()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(seeds) {
		workers = len(seeds)
	}

	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				results[i].Value, results[i].Err = runOne(ctx, seeds[i], fn)
			}
		}()
	}

dispatch:
	for i := range seeds {
		select {
		case jobs <- i:
		case <-ctx.Done():
			// Replicates never handed to a worker fail with the
			// cancellation cause; in-flight ones run to completion.
			for j := i; j < len(seeds); j++ {
				results[j].Err = ctx.Err()
			}
			break dispatch
		}
	}
	close(jobs)
	wg.Wait()
	return results, ctx.Err()
}

// runOne executes a single replicate, converting a panic into an error so
// one bad seed cannot take down the whole pool.
func runOne[T any](ctx context.Context, seed uint64, fn func(ctx context.Context, seed uint64) (T, error)) (v T, err error) {
	if e := ctx.Err(); e != nil {
		return v, e
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("runner: replicate seed %d panicked: %v", seed, r)
		}
	}()
	return fn(ctx, seed)
}
