package experiments

import (
	"autosec/internal/obs"
)

// MetricsTable renders an obs registry snapshot through the experiments
// table machinery, so `-metrics` output gets the same alignment,
// rendering and — crucially — the same multi-seed replication merge as
// the experiment tables: Aggregate folds per-seed MetricsTables
// into mean ± 95% CI / sd / min..max columns exactly like any other
// table, because every value cell is formatted to parse back as a
// float64.
//
// The adapter lives here rather than in obs because obs sits below the
// CAN layer in the import DAG (experiments → can → obs).
func MetricsTable(snap []obs.Metric) *Table {
	t := &Table{
		ID:      "METRICS",
		Title:   "observability snapshot",
		Columns: []string{"metric", "kind", "value"},
	}
	for _, m := range snap {
		t.AddRow(m.Key, m.Kind, obs.FormatValue(m.Value))
	}
	return t
}
