package experiments

import "testing"

// The repository's reproducibility promise: the same seed regenerates
// byte-identical tables, for every experiment in the suite. The parallel
// half of the promise — the same holds when replicates are sharded across
// a worker pool — is asserted in internal/runner's determinism test.
func TestExperimentsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full suite twice; skipped in -short mode")
	}
	for _, e := range Suite() {
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			first := e.Run(7)
			if first.ID != e.ID {
				t.Fatalf("suite entry %s returned table %s", e.ID, first.ID)
			}
			a := first.String()
			b := e.Run(7).String()
			if a != b {
				t.Fatalf("%s not deterministic:\n--- first\n%s\n--- second\n%s", e.ID, a, b)
			}
		})
	}
}

// And distinct seeds actually perturb the stochastic experiments (guards
// against a silently ignored seed parameter).
func TestSeedReachesTheWorkloads(t *testing.T) {
	a := E1BusDoS(1).String()
	b := E1BusDoS(2).String()
	if a == b {
		t.Fatal("E1 identical across seeds — seed not plumbed through")
	}
}
