// compare.go implements benchreport -compare: the perf regression gate
// against a committed BENCH_PRn.json baseline. Three families of checks:
//
//  1. Experiment tables: every experiment pinned in the baseline is
//     re-run and its rendered-table SHA-256 must match byte for byte —
//     reproducibility is the repo contract, so a hash drift is always a
//     failure, never a tolerance. Wall-clock is additionally gated for
//     macro experiments (baseline >= 1s, where 15% is signal rather than
//     scheduler noise): slower than 1.15x baseline fails.
//  2. Microbenchmark probes: the package benchmarks the baseline's
//     "microbenchmarks" block pins (fleet drive with observability off
//     and on, registry merge, IDS observe, campaign verify) are run in
//     their own packages through `go test -bench`, the fastest of a few
//     rounds kept. Pinned probes are held to the same 15% ns tolerance,
//     and any allocs/op increase is a hard failure.
//  3. Standing gates independent of the baseline: the metrics-plane
//     overhead ratio (obs/off) must stay under 1.10, the merge, IDS
//     observe and memoized-verify probes must stay at 0 allocs/op, and
//     memoized verify must stay 10x faster than cold.
//
// A probe whose go test fails or prints no result line fails, and so
// does every standing gate that reads it. Because the probes are built
// from the module's _test.go files, -compare must run inside the module
// (as `go run ./cmd/benchreport` does).
//
// Committed baselines are generated at seed 1; run -compare without
// -seed (or with -seed 1) or the hash checks are skipped with a warning.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"time"

	"autosec/internal/experiments"
)

// comparedExperiment is one pinned experiment in a baseline file.
type comparedExperiment struct {
	NS   int64  `json:"ns"`
	Hash string `json:"table_sha256"`
}

// comparedMicro is one pinned microbenchmark in a baseline file. Only
// the probes listed below participate; other pins are ignored.
type comparedMicro struct {
	NSPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// comparisonBaseline is the subset of a BENCH_PRn.json compare reads.
// The experiments block appears in two historical shapes — the
// hand-annotated map of BENCH_PR7.json and the -json array of
// BENCH_PR2.json — so it is decoded leniently from raw messages.
type comparisonBaseline struct {
	PR              int                           `json:"pr"`
	RawExperiments  json.RawMessage               `json:"experiments"`
	Microbenchmarks map[string]comparedMicro      `json:"microbenchmarks"`
	experiments     map[string]comparedExperiment `json:"-"`
}

// loadBaseline parses path and normalizes the experiments block.
func loadBaseline(path string) (*comparisonBaseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b comparisonBaseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	b.experiments = map[string]comparedExperiment{}
	if len(b.RawExperiments) == 0 {
		return &b, nil
	}
	if err := json.Unmarshal(b.RawExperiments, &b.experiments); err == nil {
		return &b, nil
	}
	var list []struct {
		ID   string `json:"id"`
		NS   int64  `json:"ns"`
		Hash string `json:"table_sha256"`
	}
	if err := json.Unmarshal(b.RawExperiments, &list); err != nil {
		return nil, fmt.Errorf("%s: experiments block is neither a map nor a list: %w", path, err)
	}
	for _, e := range list {
		b.experiments[e.ID] = comparedExperiment{NS: e.NS, Hash: e.Hash}
	}
	return &b, nil
}

// nsTolerance is the macro wall-clock regression budget: slower than
// 1.15x the pinned nanoseconds fails the gate.
const nsTolerance = 1.15

// macroNS is the baseline duration below which ns comparison is
// informational only — sub-second experiments move more than 15% from
// scheduler noise alone on shared CI runners.
const macroNS = int64(time.Second)

// obsOverheadBudget is the acceptance gate from the observability plane:
// the fleet drive with merged metrics must stay under 10% over the
// disabled path.
const obsOverheadBudget = 1.10

// campaignMemoSpeedup is the acceptance floor from the campaign engine:
// the memoized per-vehicle verify (warm VerifyCache, signatures and
// attestation already proven for this campaign) must be at least this
// many times faster than the cold path that runs ed25519 per poll.
const campaignMemoSpeedup = 10.0

// runCompare executes the gate and returns the process exit code.
func runCompare(path string, seed uint64, runners []experiments.Experiment) int {
	base, err := loadBaseline(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchreport: -compare: %v\n", err)
		return 1
	}
	fmt.Printf("compare vs %s (PR %d baseline)\n\n", path, base.PR)
	failures := 0
	fail := func(format string, args ...any) {
		failures++
		fmt.Printf("  FAIL  "+format+"\n", args...)
	}
	ok := func(format string, args ...any) {
		fmt.Printf("  ok    "+format+"\n", args...)
	}
	skip := func(format string, args ...any) {
		fmt.Printf("  skip  "+format+"\n", args...)
	}

	byID := map[string]func(uint64) *experiments.Table{}
	for _, r := range runners {
		byID[r.ID] = r.Run
	}
	ids := make([]string, 0, len(base.experiments))
	for id := range base.experiments {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		pin := base.experiments[id]
		run, found := byID[id]
		if !found {
			skip("%s: no such experiment in this build", id)
			continue
		}
		start := time.Now()
		rendered := run(seed).String()
		elapsed := time.Since(start)
		hash := fmt.Sprintf("%x", sha256.Sum256([]byte(rendered)))
		switch {
		case pin.Hash == "":
			skip("%s: baseline pins no table hash", id)
		case seed != 1:
			skip("%s: hash check needs -seed 1 (baselines are generated at seed 1)", id)
		case hash != pin.Hash:
			fail("%s: table hash %s != pinned %s (output drifted)", id, hash[:12], pin.Hash[:12])
		default:
			ok("%s: table hash matches (%s)", id, hash[:12])
		}
		switch {
		case pin.NS <= 0:
			// nothing pinned
		case pin.NS < macroNS:
			ok("%s: %v vs pinned %v (sub-second: informational)", id,
				elapsed.Round(time.Millisecond), time.Duration(pin.NS).Round(time.Millisecond))
		case float64(elapsed.Nanoseconds()) > nsTolerance*float64(pin.NS):
			fail("%s: %v vs pinned %v (> %.0f%% slower)", id,
				elapsed.Round(time.Millisecond), time.Duration(pin.NS).Round(time.Millisecond),
				100*(nsTolerance-1))
		default:
			ok("%s: %v vs pinned %v (within %.0f%%)", id,
				elapsed.Round(time.Millisecond), time.Duration(pin.NS).Round(time.Millisecond),
				100*(nsTolerance-1))
		}
	}

	fmt.Println()
	results := map[string]benchResult{}
	for _, p := range probes {
		r := runBench(p)
		results[p.name] = r
		if r.err != nil {
			fail("%s: %v", p.name, r.err)
			continue
		}
		pin, pinned := base.Microbenchmarks[p.name]
		if !pinned {
			ok("%s: %.0f ns/op, %.0f allocs/op (no baseline pin)", p.name, r.ns, r.allocs)
			continue
		}
		if pin.NSPerOp > 0 && r.ns > nsTolerance*pin.NSPerOp {
			fail("%s: %.0f ns/op vs pinned %.0f (> %.0f%% slower)", p.name, r.ns, pin.NSPerOp, 100*(nsTolerance-1))
		} else {
			ok("%s: %.0f ns/op vs pinned %.0f", p.name, r.ns, pin.NSPerOp)
		}
		if r.allocs > pin.AllocsPerOp {
			fail("%s: %.0f allocs/op vs pinned %.0f (allocation regression is a hard failure)",
				p.name, r.allocs, pin.AllocsPerOp)
		}
	}

	// measured returns the named probes' results, or fails gate and
	// returns false when any of them has none.
	measured := func(gate string, names ...string) ([]benchResult, bool) {
		rs := make([]benchResult, len(names))
		for i, name := range names {
			if rs[i] = results[name]; rs[i].err != nil {
				fail("%s: no result from %s", gate, name)
				return nil, false
			}
		}
		return rs, true
	}
	if rs, found := measured("metrics-plane overhead", "BenchmarkFleetVehiclesPerSec", "BenchmarkFleetVehiclesPerSecObs"); found {
		ratio := rs[1].ns / rs[0].ns
		if ratio > obsOverheadBudget {
			fail("metrics-plane overhead: obs/off = %.3fx (budget %.2fx)", ratio, obsOverheadBudget)
		} else {
			ok("metrics-plane overhead: obs/off = %.3fx (budget %.2fx)", ratio, obsOverheadBudget)
		}
	}
	for _, g := range []struct{ gate, name, why string }{
		{"registry merge point", "BenchmarkFleetRegistryMerge", "must be 0 in steady state"},
		{"ids observe hot path (baseline)", "BenchmarkIDSObserveBaseline", "must be 0 in steady state"},
		{"ids observe hot path (medium-aware)", "BenchmarkIDSObserveMediumAware", "must be 0 in steady state"},
		{"campaign memoized verify", "BenchmarkCampaignVerifyThroughputMemoized", "must be 0 on the hot path"},
	} {
		rs, found := measured(g.gate, g.name)
		switch {
		case !found:
		case rs[0].allocs != 0:
			fail("%s: %.0f allocs/op (%s)", g.gate, rs[0].allocs, g.why)
		default:
			ok("%s: 0 allocs/op", g.gate)
		}
	}
	if rs, found := measured("campaign verify memoization", "BenchmarkCampaignVerifyThroughputCold", "BenchmarkCampaignVerifyThroughputMemoized"); found {
		speedup := rs[0].ns / rs[1].ns
		if speedup < campaignMemoSpeedup {
			fail("campaign verify memoization: %.1fx over cold (floor %.0fx)", speedup, campaignMemoSpeedup)
		} else {
			ok("campaign verify memoization: %.1fx over cold (floor %.0fx)", speedup, campaignMemoSpeedup)
		}
	}

	fmt.Println()
	if failures > 0 {
		fmt.Printf("FAIL: %d regression(s) vs %s\n", failures, path)
		return 1
	}
	fmt.Printf("PASS: no regressions vs %s\n", path)
	return 0
}

// probe is one pinned package benchmark. -compare runs it where it is
// defined, so the gate times exactly the code its baseline pins.
type probe struct {
	name   string // benchmark function name, as pinned in the baseline
	pkg    string // import path of the package that defines it
	rounds int    // go test -count; the fastest round is kept
}

// probes are run and printed in this order. Single-shot wall-clock on a
// shared runner is too noisy to gate on directly, hence the rounds.
var probes = []probe{
	{"BenchmarkFleetVehiclesPerSec", "autosec/internal/fleet", 3},
	{"BenchmarkFleetVehiclesPerSecObs", "autosec/internal/fleet", 3},
	{"BenchmarkFleetRegistryMerge", "autosec/internal/fleet", 2},
	{"BenchmarkIDSObserveBaseline", "autosec/internal/ids", 2},
	{"BenchmarkIDSObserveMediumAware", "autosec/internal/ids", 2},
	{"BenchmarkCampaignVerifyThroughputCold", "autosec/internal/ota", 2},
	{"BenchmarkCampaignVerifyThroughputMemoized", "autosec/internal/ota", 3},
}

// benchResult is the fastest round of one probe, or the reason there is
// none.
type benchResult struct {
	ns, allocs float64
	err        error
}

// runBench runs p through go test and keeps its fastest round.
func runBench(p probe) benchResult {
	out, err := exec.Command("go", "test", "-run", "^$", "-bench", "^"+p.name+"$",
		"-benchmem", "-count", strconv.Itoa(p.rounds), p.pkg).CombinedOutput()
	if err != nil {
		return benchResult{err: fmt.Errorf("go test %s: %v\n%s", p.pkg, err, indent(out))}
	}
	best := benchResult{err: errors.New("go test printed no result line")}
	for _, line := range strings.Split(string(out), "\n") {
		if r, found := parseResult(p.name, line); found && (best.err != nil || r.ns < best.ns) {
			best = r
		}
	}
	return best
}

// parseResult reads one benchmark result line of name, e.g.
// "BenchmarkX-2  1000  1234 ns/op  56 B/op  7 allocs/op".
func parseResult(name, line string) (benchResult, bool) {
	f := strings.Fields(line)
	if len(f) < 4 || (f[0] != name && !strings.HasPrefix(f[0], name+"-")) {
		return benchResult{}, false
	}
	var r benchResult
	var haveNS, haveAllocs bool
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return benchResult{}, false
		}
		switch f[i+1] {
		case "ns/op":
			r.ns, haveNS = v, true
		case "allocs/op":
			r.allocs, haveAllocs = v, true
		}
	}
	return r, haveNS && haveAllocs
}

// indent prefixes every line of go test's output for the FAIL report.
func indent(out []byte) string {
	return "        " + strings.ReplaceAll(strings.TrimRight(string(out), "\n"), "\n", "\n        ")
}
