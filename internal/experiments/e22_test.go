package experiments

import "testing"

// TestE22WorkerCountInvariance: the campaign sweep — wave tallies,
// terminal outcomes, abort/rotation responses and the verification-cache
// counters — must be byte-identical whether each wave runs on one fleet
// worker or eight. (CI additionally byte-diffs the benchreport-generated
// table across -fleetpar values, and the race job runs the campaign
// package's own equivalence test under -race.)
func TestE22WorkerCountInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("drives 24 full campaigns; skipped in -short mode")
	}
	a := E22CampaignWith(3, 1).String()
	b := E22CampaignWith(3, 8).String()
	if a != b {
		t.Fatalf("E22 table differs between 1 and 8 workers:\n--- par=1\n%s\n--- par=8\n%s", a, b)
	}
}

// TestE22SeedInvariantStructure pins the cross-seed stability the
// replication machinery relies on: every cell of E22 is a function of
// index predicates and published-artifact counts, never of seed-derived
// randomness, so two different seeds must produce identical tables and
// multi-seed replication aggregates with zero variance.
func TestE22SeedInvariantStructure(t *testing.T) {
	if testing.Short() {
		t.Skip("drives 24 full campaigns; skipped in -short mode")
	}
	a := seed1Table("E22").String()
	b := E22Campaign(99).String()
	if a != b {
		t.Fatalf("E22 cells drifted with the seed — a string cell must have picked up seed-derived state:\n--- seed=1\n%s\n--- seed=99\n%s", a, b)
	}
}
