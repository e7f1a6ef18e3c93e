package runner

import (
	"context"
	"strings"
	"testing"

	"autosec/internal/experiments"
)

// mkTable builds a small synthetic experiment table for merge tests.
func mkTable(rate string, latency, load float64, verdict string) *experiments.Table {
	t := &experiments.Table{
		ID:      "TX",
		Title:   "synthetic",
		Claim:   "merge test",
		Columns: []string{"rate", "latency", "load", "verdict"},
	}
	t.AddRow(rate, latency, load, verdict)
	return t
}

func TestAggregateColumns(t *testing.T) {
	perSeed := [][]*experiments.Table{
		{mkTable("500", 1.0, 0.25, "yes")},
		{mkTable("500", 2.0, 0.25, "yes")},
		{mkTable("500", 3.0, 0.25, "no")},
	}
	agg, err := experiments.Aggregate(perSeed)
	if err != nil {
		t.Fatal(err)
	}
	if len(agg) != 1 {
		t.Fatalf("got %d tables, want 1", len(agg))
	}
	a := agg[0]

	// "rate" and "load" are seed-invariant: pass through unchanged.
	// "latency" varies numerically: expands to three columns.
	// "verdict" varies non-numerically: tallied in seed order.
	wantCols := []string{"rate", "latency", "latency sd", "latency range", "load", "verdict"}
	if len(a.Columns) != len(wantCols) {
		t.Fatalf("columns = %v, want %v", a.Columns, wantCols)
	}
	for i, c := range wantCols {
		if a.Columns[i] != c {
			t.Fatalf("columns = %v, want %v", a.Columns, wantCols)
		}
	}
	row := a.Rows[0]
	if row[0] != "500" || row[4] != "0.250" {
		t.Fatalf("invariant cells altered: %v", row)
	}
	// latency: mean 2, sd 1, t(2)=4.303 -> half = 4.303/sqrt(3) = 2.484
	if row[1] != "2 ± 2.484" {
		t.Fatalf("latency CI cell = %q", row[1])
	}
	if row[2] != "1.000" {
		t.Fatalf("latency sd cell = %q", row[2])
	}
	if row[3] != "1..3" {
		t.Fatalf("latency range cell = %q", row[3])
	}
	if row[5] != "yes x2 no x1" {
		t.Fatalf("verdict tally cell = %q", row[5])
	}
	if !strings.Contains(a.Title, "n=3 seeds") {
		t.Fatalf("title missing replicate count: %q", a.Title)
	}
}

// A column that varies with a non-numeric sentinel in some seeds is
// tallied, never averaged; a seed-invariant sentinel row inside a numeric
// column passes through.
func TestAggregateSentinels(t *testing.T) {
	mk := func(traces string, cost float64) *experiments.Table {
		tb := &experiments.Table{ID: "TY", Columns: []string{"traces", "cost"}}
		tb.AddRow(traces, cost)
		tb.AddRow(">8192", 1.0) // sentinel row, invariant across seeds
		return tb
	}
	agg, err := experiments.Aggregate([][]*experiments.Table{
		{mk("64", 1.0)}, {mk(">128", 2.0)},
	})
	if err != nil {
		t.Fatal(err)
	}
	a := agg[0]
	if a.Rows[0][0] != "64 x1 >128 x1" {
		t.Fatalf("mixed cell = %q, want tally", a.Rows[0][0])
	}
	// Row 1 of the numeric "cost" column is invariant: passes through.
	if a.Rows[1][1] != "1.000" || a.Rows[1][2] != "" || a.Rows[1][3] != "" {
		t.Fatalf("invariant numeric row = %v", a.Rows[1])
	}
}

func TestAggregateShapeMismatch(t *testing.T) {
	if _, err := experiments.Aggregate([][]*experiments.Table{
		{mkTable("1", 1, 1, "yes")},
		{mkTable("1", 1, 1, "yes"), mkTable("2", 1, 1, "no")},
	}); err == nil {
		t.Fatal("ragged replicate sets should fail")
	}
	bad := mkTable("1", 1, 1, "yes")
	bad.ID = "OTHER"
	if _, err := experiments.Aggregate([][]*experiments.Table{
		{mkTable("1", 1, 1, "yes")}, {bad},
	}); err == nil {
		t.Fatal("mismatched experiment IDs should fail")
	}
	if _, err := experiments.Aggregate(nil); err == nil {
		t.Fatal("empty replicate set should fail")
	}
}

// ReplicateAggregate over a deterministic suite yields identical output
// at any parallelism.
func TestReplicateAggregateParInvariant(t *testing.T) {
	suite := func(seed uint64) []*experiments.Table {
		return []*experiments.Table{mkTable("500", float64(seed), 0.25, "yes")}
	}
	seeds := Seeds(1, 8)
	serial, err := ReplicateAggregate(context.Background(), suite, seeds, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := ReplicateAggregate(context.Background(), suite, seeds, 8)
	if err != nil {
		t.Fatal(err)
	}
	if serial[0].String() != par[0].String() {
		t.Fatalf("par=1 and par=8 disagree:\n%s\n%s", serial[0], par[0])
	}
}
