// Command benchreport regenerates the full experiment suite E1–E22 (plus
// ablations A1–A2) from DESIGN.md and prints each result table, paper
// claim included. -fleet trims or extends E18's fleet-size sweep.
//
// With -seeds N it becomes a replication study: the suite runs once per
// seed (seed, seed+1, …) sharded across a -par-sized worker pool, and the
// printed tables carry mean ± 95% CI, standard deviation and per-seed
// range columns for every cell that varies across seeds. The merge is
// deterministic: any -par value produces byte-identical output.
//
// With -json FILE (single-seed mode) it additionally emits a
// machine-readable report: wall-clock nanoseconds and a SHA-256 hash of
// the rendered table for every experiment, plus a runtime/metrics
// snapshot (live heap bytes, cumulative allocation, GC cycles) taken
// after the run, so perf PRs can pin speed, byte-identity and the memory
// trajectory of the suite in one artifact (see BENCH_PR2.json at the
// repo root for the committed trajectory).
//
// -metrics prints the runtime/metrics snapshot as a table after the run.
// benchreport writes no traces: `autosim run -trace` traces one scenario
// and `autosim run -fleettrace` exports the fleet flight recorder's
// per-vehicle traces.
//
// -cpuprofile / -memprofile write pprof profiles of the run, so future
// perf work can grab flame graphs without editing code:
//
//	go run ./cmd/benchreport -only E1 -cpuprofile cpu.pprof
//	go tool pprof -top cpu.pprof
//
// Fleet observability (E20): -obsfleet trims or extends the fleet-size
// sweep and -fleetpar pins the fleet driver's worker count (the table is
// byte-identical for every value — CI diffs 1 against 8). -fleetpar also
// drives E22's campaign waves at that worker count, under the same
// byte-identity contract.
//
// -compare BASELINE.json is the perf regression gate: it re-runs every
// experiment pinned in a committed BENCH_PRn.json, requires byte-identical
// table hashes, fails macro experiments (>= 1s baseline) that slowed by
// more than 15%, runs the pinned package benchmarks (fleet drive/merge,
// IDS observe, campaign verify) in their own packages through go test
// (allocation increases are a hard failure), and enforces the < 10%
// metrics-plane overhead gate on the fleet drive. It builds those
// benchmarks from the module's _test.go files, so it must run inside the
// module, as `go run ./cmd/benchreport` does.
//
// Usage:
//
//	benchreport [-seed N] [-seeds N] [-par N] [-only E3,E8] [-json FILE]
//	            [-obsfleet SIZES] [-fleetpar N] [-compare FILE]
//	            [-metrics] [-cpuprofile FILE] [-memprofile FILE]
package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"autosec/internal/experiments"
	"autosec/internal/obs"
	"autosec/internal/runner"
)

// jsonReport is the schema written by -json. Runtime is the
// runtime/metrics snapshot taken after the suite finishes
// (heap_bytes, total_alloc_bytes, gc_cycles).
type jsonReport struct {
	Seed        uint64            `json:"seed"`
	GoVersion   string            `json:"go_version"`
	Experiments []jsonExperiment  `json:"experiments"`
	TotalNS     int64             `json:"total_ns"`
	Runtime     map[string]uint64 `json:"runtime"`
}

// jsonExperiment pins one experiment's regeneration cost and output hash.
type jsonExperiment struct {
	ID   string `json:"id"`
	NS   int64  `json:"ns"`
	Hash string `json:"table_sha256"`
}

func main() {
	seed := flag.Uint64("seed", 1, "base scenario seed (same seed, same tables)")
	nseeds := flag.Int("seeds", 1, "number of replicate seeds (seed, seed+1, ...); >1 prints aggregated tables")
	par := flag.Int("par", runtime.GOMAXPROCS(0), "replication worker pool size")
	only := flag.String("only", "", "comma-separated experiment ids to run (e.g. E3,E8); empty runs all")
	fleet := flag.String("fleet", "", "comma-separated fleet sizes for E18's sweep (e.g. 500,5000); empty uses the golden default (1000,10000,100000)")
	obsfleet := flag.String("obsfleet", "", "comma-separated fleet sizes for E20's observability sweep (e.g. 500,5000); empty uses the golden default (1000,10000)")
	fleetpar := flag.Int("fleetpar", 0, "fleet driver worker count for E20 and E22's campaign waves (0 = default; any value prints identical tables — CI diffs 1 vs 8)")
	compareFile := flag.String("compare", "", "regression-gate the working tree against this committed BENCH_PRn.json baseline and exit")
	jsonOut := flag.String("json", "", "write per-experiment ns + table hashes as JSON to this file ('-' for stdout); single-seed mode only")
	showMetrics := flag.Bool("metrics", false, "print a runtime/metrics snapshot (heap, allocs, GC) after the run")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile taken after the run to this file")
	flag.Parse()
	if *par <= 0 {
		*par = runtime.GOMAXPROCS(0)
	}
	if *jsonOut != "" && *nseeds > 1 {
		fmt.Fprintln(os.Stderr, "benchreport: -json requires single-seed mode (drop -seeds)")
		os.Exit(1)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchreport: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "benchreport: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchreport: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize live-heap stats
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "benchreport: %v\n", err)
			}
		}()
	}

	// The suite in report order; the sweep flags swap in their own
	// runners for E18, E20 and E22.
	runners := experiments.Suite()
	override := func(id string, run func(uint64) *experiments.Table) {
		for i := range runners {
			if runners[i].ID == id {
				runners[i].Run = run
			}
		}
	}
	if *fleet != "" {
		sizes, err := parseFleet(*fleet)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchreport: %v\n", err)
			os.Exit(1)
		}
		override("E18", func(s uint64) *experiments.Table {
			return experiments.E18FleetWith(s, sizes, []int{1, 2, 4})
		})
	}

	if *fleetpar < 0 {
		fmt.Fprintln(os.Stderr, "benchreport: -fleetpar must be >= 0")
		os.Exit(1)
	}
	// E22 drives its campaign waves with the -fleetpar worker count; the
	// default 0 keeps the serial golden reference. Any value prints
	// identical bytes — CI byte-diffs 1 against 8.
	if *fleetpar > 1 {
		override("E22", func(s uint64) *experiments.Table {
			return experiments.E22CampaignWith(s, *fleetpar)
		})
	}
	if *obsfleet != "" || *fleetpar != 0 {
		sizes := []int{1_000, 10_000}
		if *obsfleet != "" {
			var err error
			if sizes, err = parseFleet(*obsfleet); err != nil {
				fmt.Fprintf(os.Stderr, "benchreport: -obsfleet: %v\n", err)
				os.Exit(1)
			}
		}
		override("E20", func(s uint64) *experiments.Table {
			return experiments.E20ObservabilityWith(s, sizes, *fleetpar)
		})
	}

	want := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			want[strings.ToUpper(strings.TrimSpace(id))] = true
		}
	}

	if *compareFile != "" {
		if *nseeds > 1 {
			fmt.Fprintln(os.Stderr, "benchreport: -compare requires single-seed mode (drop -seeds)")
			os.Exit(1)
		}
		os.Exit(runCompare(*compareFile, *seed, runners))
	}

	selected := runners[:0:0]
	for _, r := range runners {
		if len(want) > 0 && !want[r.ID] {
			continue
		}
		selected = append(selected, r)
	}
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "benchreport: no experiments matched -only=%q\n", *only)
		os.Exit(1)
	}

	if *nseeds <= 1 {
		report := jsonReport{Seed: *seed, GoVersion: runtime.Version()}
		quiet := *jsonOut == "-" // keep stdout parseable
		for _, r := range selected {
			start := time.Now()
			table := r.Run(*seed)
			elapsed := time.Since(start)
			rendered := table.String()
			report.TotalNS += elapsed.Nanoseconds()
			report.Experiments = append(report.Experiments, jsonExperiment{
				ID:   r.ID,
				NS:   elapsed.Nanoseconds(),
				Hash: fmt.Sprintf("%x", sha256.Sum256([]byte(rendered))),
			})
			if !quiet {
				fmt.Println(rendered)
				fmt.Printf("  (regenerated in %v)\n\n", elapsed.Round(time.Millisecond))
			}
		}
		report.Runtime = obs.RuntimeMetrics()
		if *jsonOut != "" {
			if err := writeJSON(*jsonOut, &report); err != nil {
				fmt.Fprintf(os.Stderr, "benchreport: %v\n", err)
				os.Exit(1)
			}
		}
		if *showMetrics && !quiet {
			// with -json - the runtime block is already in the JSON and
			// stdout must stay parseable
			printRuntimeMetrics(report.Runtime)
		}
		return
	}

	// Replication mode: run the selected suite once per seed on the pool,
	// then print the deterministic merge.
	suite := func(s uint64) []*experiments.Table {
		tables := make([]*experiments.Table, len(selected))
		for i, r := range selected {
			tables[i] = r.Run(s)
		}
		return tables
	}
	seeds := runner.Seeds(*seed, *nseeds)
	start := time.Now()
	tables, err := runner.ReplicateAggregate(context.Background(), suite, seeds, *par)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchreport: %v\n", err)
		os.Exit(1)
	}
	elapsed := time.Since(start).Round(time.Millisecond)
	for _, t := range tables {
		fmt.Println(t.String())
	}
	fmt.Printf("  (%d experiments x %d seeds on %d workers in %v)\n",
		len(selected), *nseeds, *par, elapsed)
	if *showMetrics {
		printRuntimeMetrics(obs.RuntimeMetrics())
	}
}

// parseFleet parses -fleet ("500,5000") into E18FleetWith's sweep list.
func parseFleet(s string) ([]int, error) {
	var sizes []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("-fleet: %q is not a fleet size >= 1", part)
		}
		sizes = append(sizes, n)
	}
	return sizes, nil
}

// printRuntimeMetrics renders the runtime snapshot through the same
// table machinery as every other metric surface.
func printRuntimeMetrics(rt map[string]uint64) {
	keys := make([]string, 0, len(rt))
	for k := range rt {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	snap := make([]obs.Metric, 0, len(keys))
	for _, k := range keys {
		snap = append(snap, obs.Metric{Key: "runtime/" + k, Kind: "probe", Value: float64(rt[k])})
	}
	fmt.Println()
	fmt.Print(experiments.MetricsTable(snap))
}

// writeJSON marshals the report with stable indentation to path or stdout.
func writeJSON(path string, report *jsonReport) error {
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
