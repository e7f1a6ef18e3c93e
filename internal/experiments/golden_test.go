package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden experiment tables under testdata/")

// seed1 holds one lazily built seed-1 table per Suite() entry.
// TestGoldenTables and the tests that check a seed-1 table's shape all
// read it, so a test run builds each seed-1 table at most once.
var seed1 = func() map[string]func() *Table {
	m := make(map[string]func() *Table)
	for _, e := range Suite() {
		m[e.ID] = sync.OnceValue(func() *Table { return e.Run(1) })
	}
	return m
}()

// seed1Table returns the shared seed-1 table of experiment id. Callers
// must not modify it.
func seed1Table(id string) *Table { return seed1[id]() }

// TestGoldenTables diffs every experiment's seed-1 table against the
// committed golden output. A behavioural change to any subsystem that
// feeds an experiment shows up here as a readable table diff; regenerate
// intentionally with:
//
//	go test ./internal/experiments -run TestGoldenTables -update
func TestGoldenTables(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full suite; skipped in -short mode")
	}
	for _, e := range Suite() {
		t.Run(e.ID, func(t *testing.T) {
			tbl := seed1Table(e.ID)
			path := filepath.Join("testdata", tbl.ID+".golden")
			got := tbl.String()
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update to create): %v", err)
			}
			if got != string(want) {
				t.Errorf("%s drifted from its golden table.\n--- got\n%s\n--- want\n%s\n(if intentional, regenerate with -update)",
					tbl.ID, got, want)
			}
		})
	}
}
