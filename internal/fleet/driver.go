package fleet

import (
	"runtime"
	"sync"
	"sync/atomic"

	"autosec/internal/core"
	"autosec/internal/sim"
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
	// DriveObs derives per index from Cfg.Seed (see VehicleSeed).
	Cfg core.Config
	// N is the fleet population size.
	N int
	// Workers bounds the shard parallelism; <= 0 means GOMAXPROCS.
	Workers int
}

// shardWorkers resolves a worker count for n items: <= 0 means
// GOMAXPROCS, and no more workers than items.
func shardWorkers(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return min(workers, n)
}

// ForShards splits [0, n) into contiguous shards whose sizes differ by
// at most one, one per worker (workers resolves as in shardWorkers), runs
// fn(w, lo, hi) for shard w on its own goroutine, and returns when every
// shard has. It is the one partition of every sharded fleet loop:
// provisioning, key rotation and the drive loop.
func ForShards(n, workers int, fn func(w, lo, hi int)) {
	workers = shardWorkers(workers, n)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			fn(w, w*n/workers, (w+1)*n/workers)
		}(w)
	}
	wg.Wait()
}

// VehicleSeed derives vehicle idx's kernel seed from the fleet base seed
// (sim.ChildSeed), so neighbouring indices get decorrelated streams and
// the mapping is independent of sharding.
func VehicleSeed(base uint64, idx int) uint64 {
	return sim.ChildSeed(base, idx)
}

// driveAbort is the shared failure state of one drive. The hot-path
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
