package runner

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestSeeds(t *testing.T) {
	got := Seeds(5, 3)
	want := []uint64{5, 6, 7}
	if len(got) != len(want) {
		t.Fatalf("Seeds(5,3) = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Seeds(5,3) = %v, want %v", got, want)
		}
	}
	if Seeds(1, 0) != nil || Seeds(1, -1) != nil {
		t.Fatal("Seeds with n<=0 should be nil")
	}
}

// Results come back in seed order no matter how replicates are scheduled.
func TestMapSeedOrder(t *testing.T) {
	seeds := Seeds(100, 32)
	results, err := Map(context.Background(), seeds, 8, func(_ context.Context, seed uint64) (uint64, error) {
		return seed * 2, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Seed != seeds[i] {
			t.Fatalf("result %d carries seed %d, want %d", i, r.Seed, seeds[i])
		}
		if r.Err != nil || r.Value != seeds[i]*2 {
			t.Fatalf("result %d = (%d, %v), want (%d, nil)", i, r.Value, r.Err, seeds[i]*2)
		}
	}
}

// TestMapNilProgressUnchanged: workers <= 0 means GOMAXPROCS, and the
// results still come back seed-ordered.
func TestMapNilProgressUnchanged(t *testing.T) {
	results, err := Map(context.Background(), Seeds(7, 5), 0,
		func(_ context.Context, seed uint64) (uint64, error) { return seed, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Value != 7+uint64(i) {
			t.Fatalf("result %d = %+v", i, r)
		}
	}
}

// The pool really is bounded: concurrent replicates never exceed workers.
func TestMapBoundedConcurrency(t *testing.T) {
	const workers = 3
	var cur, peak atomic.Int64
	var mu sync.Mutex
	_, err := Map(context.Background(), Seeds(1, 24), workers, func(_ context.Context, _ uint64) (int, error) {
		n := cur.Add(1)
		mu.Lock()
		if n > peak.Load() {
			peak.Store(n)
		}
		mu.Unlock()
		defer cur.Add(-1)
		return 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("observed %d concurrent replicates, pool bound is %d", p, workers)
	}
}

// A panicking replicate surfaces as that result's error; the rest of the
// pool is unharmed.
func TestMapPanicIsolated(t *testing.T) {
	results, err := Map(context.Background(), Seeds(1, 8), 4, func(_ context.Context, seed uint64) (int, error) {
		if seed == 3 {
			panic("boom")
		}
		return int(seed), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Seed == 3 {
			if r.Err == nil {
				t.Fatal("panicking seed reported no error")
			}
			continue
		}
		if r.Err != nil || r.Value != int(r.Seed) {
			t.Fatalf("seed %d = (%d, %v), want (%d, nil)", r.Seed, r.Value, r.Err, r.Seed)
		}
	}
}

// Cancellation stops dispatch: undispatched replicates carry ctx's error
// and Map reports the cancellation.
func TestMapCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	release := make(chan struct{})
	var started atomic.Int64
	done := make(chan struct{})
	var results []Result[int]
	var err error
	go func() {
		defer close(done)
		results, err = Map(ctx, Seeds(1, 16), 2, func(_ context.Context, seed uint64) (int, error) {
			started.Add(1)
			<-release
			return int(seed), nil
		})
	}()
	for started.Load() < 2 {
		runtime.Gosched()
	}
	cancel()
	close(release)
	<-done
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Map error = %v, want context.Canceled", err)
	}
	var cancelled int
	for _, r := range results {
		if errors.Is(r.Err, context.Canceled) {
			cancelled++
		}
	}
	if cancelled == 0 {
		t.Fatal("no replicate carried the cancellation error")
	}
}
