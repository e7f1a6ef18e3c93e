// Package experiments implements the paper-reproduction harness: one
// function per experiment E1–E12 from DESIGN.md, each returning a Table
// whose rows quantify one qualitative claim of the paper. cmd/benchreport
// prints every table; the root bench_test.go wraps each function in a
// testing.B benchmark so `go test -bench` regenerates the full evaluation.
package experiments

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Table is one experiment's result: an id, the paper claim it
// quantifies, and a rectangular result grid.
type Table struct {
	ID    string
	Title string
	// Claim cites the qualitative statement from the paper (with its
	// section) that the numbers substantiate.
	Claim   string
	Columns []string
	Rows    [][]string
}

// CI is a sample mean with a symmetric 95% confidence half-width, the
// cell type emitted by the multi-seed replication merge (internal/runner).
// It renders as "12.3 ± 0.4".
type CI struct {
	Mean float64
	Half float64 // half-width of the 95% confidence interval
}

func (c CI) String() string {
	return fmtMeasure(c.Mean) + " ± " + fmtMeasure(c.Half)
}

// MinMax is an observed per-seed range, rendered as "11.9..12.8".
type MinMax struct {
	Min float64
	Max float64
}

func (m MinMax) String() string {
	return fmtMeasure(m.Min) + ".." + fmtMeasure(m.Max)
}

// fmtMeasure renders an aggregated measurement with adaptive precision:
// four significant digits, fixed-point where that stays readable, no
// trailing zeros. Unlike the raw-cell %.3f it must cope with cells whose
// native scale ranges from miss-rate fractions to frame counts in the
// tens of thousands.
func fmtMeasure(v float64) string {
	switch {
	case v == 0:
		return "0"
	case math.IsInf(v, 0) || math.IsNaN(v):
		return strconv.FormatFloat(v, 'g', -1, 64)
	case math.Abs(v) >= 1e6 || math.Abs(v) < 1e-3:
		return strconv.FormatFloat(v, 'g', 4, 64)
	}
	digits := int(math.Floor(math.Log10(math.Abs(v)))) + 1
	dec := 4 - digits
	if dec < 0 {
		dec = 0
	}
	s := strconv.FormatFloat(v, 'f', dec, 64)
	if strings.Contains(s, ".") {
		s = strings.TrimRight(s, "0")
		s = strings.TrimRight(s, ".")
	}
	return s
}

// AddRow appends a row, formatting each cell with %v. float64 cells keep
// the historical fixed %.3f rendering (single-seed tables and goldens
// depend on it); CI and MinMax cells use the adaptive measurement format.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		case string:
			row[i] = v
		case CI:
			row[i] = v.String()
		case MinMax:
			row[i] = v.String()
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// String renders the table as aligned text.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %s\n", t.ID, t.Title)
	if t.Claim != "" {
		fmt.Fprintf(&b, "  claim: %s\n", t.Claim)
	}
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, cell := range r {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		b.WriteString("  ")
		for i, cell := range cells {
			if i < len(widths) {
				fmt.Fprintf(&b, "%-*s", widths[i]+2, cell)
			} else {
				b.WriteString(cell)
			}
		}
		b.WriteString("\n")
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
	return b.String()
}

// Experiment is one entry of the suite: the ID its table carries and
// the function that regenerates that table at a seed.
type Experiment struct {
	ID  string
	Run func(seed uint64) *Table
}

// Suite returns every experiment in report order: E1–E22, then the
// ablations A1–A2. It is the one list of the suite; All, cmd/benchreport
// and the determinism test iterate it. Each call returns a fresh slice,
// so a caller may swap in its own Run for an entry.
func Suite() []Experiment {
	return []Experiment{
		{"E1", E1BusDoS},
		{"E2", E2SideChannel},
		{"E3", E3FleetCompromise},
		{"E4", E4Pseudonym},
		{"E5", E5Tradeoff},
		{"E6", E6Verification},
		{"E7", E7AuthenticatedCAN},
		{"E8", E8Gateway},
		{"E9", E9Relay},
		{"E10", E10OTA},
		{"E11", E11IDS},
		{"E12", E12Lifetime},
		{"E13", E13DiagnosticAccess},
		{"E14", E14BusOff},
		{"E15", E15VerifyScaling},
		{"E16", E16CrossMediumGateway},
		{"E17", E17Zonal},
		{"E18", E18Fleet},
		{"E19", E19KernelPar},
		{"E20", E20Observability},
		{"E21", E21MediumIDS},
		{"E22", E22Campaign},
		{"A1", A1MACTruncation},
		{"A2", A2BoundingThreshold},
	}
}

// All runs every experiment at the given seed and returns the tables in
// order. This is the one-call full reproduction.
func All(seed uint64) []*Table {
	suite := Suite()
	tables := make([]*Table, len(suite))
	for i, e := range suite {
		tables[i] = e.Run(seed)
	}
	return tables
}
