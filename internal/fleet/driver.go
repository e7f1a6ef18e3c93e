package fleet

import (
	"context"
	"sync"
	"sync/atomic"

	"autosec/internal/core"
)

// Driver shards a vehicle population across workers, each worker running
// its shard on a private core.VehiclePool so construction cost amortizes
// over the shard. Results merge in vehicle-index order, so the output is
// byte-identical at any worker count — the fleet-scale analogue of the
// runner's par-invariance, backed by the pooled Reset's equivalence
// guarantee (a reset vehicle behaves exactly like a fresh one).
type Driver struct {
	// Cfg is the per-vehicle build configuration. The VIN is shared by
	// every pool vehicle; per-vehicle identity comes from the seed, which
	// Drive derives per index from Cfg.Seed (see VehicleSeed).
	Cfg core.Config
	// N is the fleet population size.
	N int
	// Workers bounds the shard parallelism; <= 0 means GOMAXPROCS.
	Workers int
}

// VehicleSeed derives vehicle idx's kernel seed from the fleet base seed:
// a splitmix64-style finalizer over (base, idx), so neighbouring indices
// get decorrelated streams and the mapping is independent of sharding.
func VehicleSeed(base uint64, idx int) uint64 {
	z := base + 0x9E3779B97F4A7C15*uint64(idx+1)
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return z
}

// driveAbort is the shared failure state of one Drive call. The hot-path
// check is a single atomic load (aborted); the mutex only serializes the
// cold fail path that records which error wins. At 1e5+ vehicles the
// previous design — a mutex acquisition per vehicle just to ask "has
// anyone failed?" — was the one cross-worker synchronization point on an
// otherwise share-nothing loop.
type driveAbort struct {
	aborted  atomic.Bool
	mu       sync.Mutex
	firstErr error
	errIdx   int
}

// fail records err for vehicle idx, keeping the lowest-indexed error (a
// shard seeing the abort flag may stop before reaching its own failure,
// so under multiple workers the index is best-effort).
func (a *driveAbort) fail(idx int, err error) {
	a.mu.Lock()
	if a.firstErr == nil || idx < a.errIdx {
		a.firstErr, a.errIdx = err, idx
	}
	a.mu.Unlock()
	a.aborted.Store(true)
}

// err returns the winning error after the drive barrier.
func (a *driveAbort) err() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.firstErr
}

// Drive runs fn once per vehicle index over d's population and returns
// the per-vehicle results in index order. Each worker owns a contiguous
// index shard and a private pool: the first acquisition constructs a
// vehicle, every later one resets it, so steady-state sharding does no
// construction work. fn must treat the vehicle as scenario scratch — any
// rules, observers or traffic it adds are rewound by the next Reset.
//
// An error aborts the drive; the lowest-indexed error observed wins the
// report. A panic in fn or in the pool's Acquire aborts it the same way,
// as an error naming the vehicle's index and seed, and that vehicle is
// discarded rather than reused. ctx cancellation surfaces as that
// context's error.
//
// Drive is the bare loop; DriveObs is the same loop with the fleet
// observability plane (merged metrics, sampled traces, progress
// telemetry) attached.
func Drive[T any](ctx context.Context, d Driver, fn func(idx int, v *core.Vehicle) (T, error)) ([]T, error) {
	results, _, err := DriveObs(ctx, d, ObsOptions{}, fn)
	return results, err
}
