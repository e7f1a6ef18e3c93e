package experiments

import (
	"strings"
	"testing"
)

func TestA1MACTruncationShape(t *testing.T) {
	tb := seed1Table("A1")
	if len(tb.Rows) != 6 {
		t.Fatalf("rows=%d", len(tb.Rows))
	}
	// Payload budget shrinks monotonically with MAC width.
	prev := 99.0
	for i := range tb.Rows {
		left := cellF(t, tb, i, 2)
		if left >= prev && i > 0 {
			t.Fatalf("payload budget not shrinking\n%s", tb)
		}
		prev = left
	}
	// 8..32-bit MACs fit a classic frame with payload to spare and verify.
	for i := 0; i < 4; i++ {
		if cell(t, tb, i, 5) != "yes" {
			t.Fatalf("row %d did not verify\n%s", i, tb)
		}
	}
	// 64-bit MAC leaves no payload room in a classic frame.
	lastLeft := cellF(t, tb, 5, 2)
	if lastLeft > 0 {
		t.Fatalf("64-bit MAC claims %v payload bytes\n%s", lastLeft, tb)
	}
	if !strings.Contains(cell(t, tb, 5, 5), "fit") {
		t.Fatalf("64-bit row outcome: %s\n%s", cell(t, tb, 5, 5), tb)
	}
}

func TestA2BoundingThresholdShape(t *testing.T) {
	tb := seed1Table("A2")
	if len(tb.Rows) != 5 {
		t.Fatalf("rows=%d", len(tb.Rows))
	}
	// Owner accept rate rises (weakly) with budget; attack accepts flip
	// from blocked to UNLOCKS as the budget loosens.
	firstOwner := cellF(t, tb, 0, 1)
	lastOwner := cellF(t, tb, len(tb.Rows)-1, 1)
	if lastOwner < firstOwner {
		t.Fatalf("owner acceptance fell with looser budget\n%s", tb)
	}
	if lastOwner < 0.99 {
		t.Fatalf("1ms slack still rejects the owner\n%s", tb)
	}
	// The tightest budget blocks every relay.
	for col := 2; col <= 4; col++ {
		if cell(t, tb, 0, col) != "blocked" {
			t.Fatalf("tight budget leaks (col %d)\n%s", col, tb)
		}
	}
	// The loosest budget (1ms slack) admits even the 10us relay.
	if cell(t, tb, 4, 2) != "UNLOCKS" {
		t.Fatalf("loose budget still blocks the relay — sweep has no crossover\n%s", tb)
	}
	// Crossover exists: some budget blocks the 10us relay but admits the
	// zero-latency one nowhere tighter — i.e., columns flip at different
	// rows, showing the tuning space.
	flips := 0
	for col := 2; col <= 4; col++ {
		for row := 1; row < len(tb.Rows); row++ {
			if cell(t, tb, row-1, col) == "blocked" && cell(t, tb, row, col) == "UNLOCKS" {
				flips++
				break
			}
		}
	}
	if flips == 0 {
		t.Fatalf("no crossover anywhere in the sweep\n%s", tb)
	}
}
