package runner

import (
	"context"
	"runtime"
	"testing"

	"autosec/internal/experiments"
)

// The tentpole guarantee: sharding the real experiment suite across a
// parallel pool changes nothing. Every per-seed table is bit-for-bit the
// table a serial run of that seed produces, and the aggregated tables are
// byte-identical between -par 1 and -par N.
func TestParallelReplicationDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite replication in -short mode")
	}
	// Two seeds keep this affordable under -race: E15 alone is ~6s of
	// virtual verification workload per suite run.
	seeds := Seeds(1, 2)
	par := runtime.GOMAXPROCS(0)

	serialPerSeed, err := Replicate(context.Background(), experiments.All, seeds, 1)
	if err != nil {
		t.Fatal(err)
	}
	parPerSeed, err := Replicate(context.Background(), experiments.All, seeds, par)
	if err != nil {
		t.Fatal(err)
	}
	for i := range seeds {
		if len(serialPerSeed[i]) != len(parPerSeed[i]) {
			t.Fatalf("seed %d: %d tables serial vs %d parallel", seeds[i], len(serialPerSeed[i]), len(parPerSeed[i]))
		}
		for j := range serialPerSeed[i] {
			a, b := serialPerSeed[i][j].String(), parPerSeed[i][j].String()
			if a != b {
				t.Fatalf("seed %d experiment %s: serial and parallel replicates differ:\n--- serial\n%s\n--- parallel\n%s",
					seeds[i], serialPerSeed[i][j].ID, a, b)
			}
		}
	}

	serialAgg, err := experiments.Aggregate(serialPerSeed)
	if err != nil {
		t.Fatal(err)
	}
	parAgg, err := experiments.Aggregate(parPerSeed)
	if err != nil {
		t.Fatal(err)
	}
	for j := range serialAgg {
		a, b := serialAgg[j].String(), parAgg[j].String()
		if a != b {
			t.Fatalf("aggregated %s differs between par=1 and par=%d:\n--- par=1\n%s\n--- par=%d\n%s",
				serialAgg[j].ID, par, a, par, b)
		}
	}
}
