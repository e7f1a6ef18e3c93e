package fleet

import (
	"context"
	"fmt"

	"autosec/internal/core"
	"autosec/internal/obs"
)

// Wave is one contiguous index range [Lo, Hi) of a campaign's staged
// rollout. Waves partition the population in index order (canary first,
// full-fleet last); because every per-vehicle decision in the drive loop
// keys on the absolute vehicle index, driving the same population as one
// wave or as many is behaviourally identical — wave boundaries change
// *when* a vehicle is driven, never *what* it does.
type Wave struct {
	Lo, Hi int
}

// Size returns the number of vehicles in the wave.
func (w Wave) Size() int { return w.Hi - w.Lo }

// String renders the wave as its half-open range.
func (w Wave) String() string { return fmt.Sprintf("[%d,%d)", w.Lo, w.Hi) }

// StageWaves splits a population of n into a staged rollout plan:
// a canary wave, then rings that grow by the given factor, then the
// remainder as the full wave. canary and factor are clamped to sane
// minimums (1 vehicle, 2x). StageWaves(1000, 10, 4) → [0,10) [10,50)
// [50,210) [210,850) [850,1000).
func StageWaves(n, canary, factor int) []Wave {
	if n <= 0 {
		return nil
	}
	if canary < 1 {
		canary = 1
	}
	if factor < 2 {
		factor = 2
	}
	var waves []Wave
	lo, size := 0, canary
	for lo < n {
		hi := lo + size
		if hi > n {
			hi = n
		}
		waves = append(waves, Wave{Lo: lo, Hi: hi})
		lo = hi
		size *= factor
	}
	return waves
}

// DriveWaveObs runs fn over one wave of d's population with the
// observability plane attached and returns the wave's results indexed
// by idx-w.Lo, merging that wave's per-vehicle registries at the wave
// barrier. Sharding, pooling and the error contract match DriveObs;
// vehicle seeds come from the absolute index, so the same vehicle
// behaves identically whatever wave plan contains it. Unlike DriveObs,
// fn receives each vehicle's live registry (nil unless o.Metrics) so
// campaign code can count scenario-level outcomes (installs, rejections,
// blast radius) as mergeable instruments folded in vehicle-index order —
// the per-wave deterministic merge.
// Wave-level aggregation across waves is the caller's job (fold each
// wave's Registry into a campaign registry with Merge).
func DriveWaveObs[T any](ctx context.Context, d Driver, o ObsOptions, w Wave, fn func(idx int, v *core.Vehicle, reg *obs.Registry) (T, error)) ([]T, *ObsResult, error) {
	if d.N <= 0 {
		return nil, nil, fmt.Errorf("fleet: population must be positive, got %d", d.N)
	}
	if w.Lo < 0 || w.Hi > d.N || w.Lo >= w.Hi {
		return nil, nil, fmt.Errorf("fleet: wave %v out of range for population %d", w, d.N)
	}
	return driveRangeObs(ctx, d, o, w.Lo, w.Hi, fn)
}
