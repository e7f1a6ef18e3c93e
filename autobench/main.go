// Command autobench is the autosec benchmark: three batch workloads that
// drive the simulator as a library and time its public calls from
// outside. fleet-churn measures pooled-vehicle turnover, vehicle-soak one
// long-lived parallel vehicle, and ota-campaign a staged OTA campaign
// under attack. Each run prints a provenance header, every metric by name
// with its unit, and as its last line one JSON object with the gated
// metrics. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	check    bool
	workers  int
	outDir   string
	profile  *profiler
}

// artifact names a file of this run under the output directory.
func (rc runConfig) artifact(suffix string) string {
	return filepath.Join(rc.outDir, fmt.Sprintf("%s-seed%d.%s", rc.workload, rc.seed, suffix))
}

type metricDef struct{ name, unit string }

// e2eMetrics are the end-to-end metrics every untraced run reports; each
// is defined on every workload (see README.md for what an op is).
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_us_p50", "us"},
	{"alloc_b_per_op", "B"},
	{"heap_live_mb", "MB"},
}

// layerMetrics are the per-layer metrics every traced run reports. A
// layer a workload does not exercise reads 0.
var layerMetrics = []metricDef{
	{"core.reset_us", "us"},
	{"core.pool_misses", "count"},
	{"core.build_ms", "ms"},
	{"fleet.busy_frac", "fraction"},
	{"fleet.tail_wait_ms", "ms"},
	{"zonal.set_rules_us", "us"},
	{"zonal.quarantine_us", "us"},
	{"sim.schedule_us", "us"},
	{"sim.run_us", "us"},
	{"sim.run_self_us", "us"},
	{"sim.steps_per_op", "count"},
	{"sim.ns_per_step", "ns"},
	{"can.send_ns", "ns"},
	{"can.frames_ok_per_op", "count"},
	{"can.frames_errored", "count"},
	{"gateway.forwarded_per_op", "count"},
	{"gateway.blocked_per_op", "count"},
	{"zonal.backbone_frames_per_op", "count"},
	{"ethernet.frames_forwarded_per_op", "count"},
	{"ids.observed_per_op", "count"},
	{"ids.alerts", "count"},
	{"ids.train_ms", "ms"},
	{"ota.sig_lookups", "count"},
	{"ota.sig_verifies", "count"},
	{"ota.sig_hit_ratio", "ratio"},
	{"ota.attest_hit_ratio", "ratio"},
	{"campaign.new_s", "s"},
	{"campaign.run_s", "s"},
	{"campaign.waves", "count"},
	{"campaign.rotations", "count"},
	{"campaign.rotate_failed", "count"},
	{"obs.metrics_per_vehicle", "count"},
	{"trace.overhead_frac", "fraction"},
	{"trace.residual_frac", "fraction"},
}

var workloads = map[string]func(runConfig) (*outcome, error){
	"fleet-churn":  runChurn,
	"vehicle-soak": runSoak,
	"ota-campaign": runOTA,
}

type extraMetric struct {
	name  string
	value float64
	unit  string
}

// outcome is what a workload run hands back: op accounting, the oracle
// digest, timed-phase measurements and per-layer readings.
type outcome struct {
	attempted, failed int64
	failures          []string
	nfailures         int
	digest            string
	// endDigest is the digest at the end of the run's horizon endAt, where
	// the digest depends on the horizon (vehicle-soak); "" elsewhere.
	endDigest, endAt string
	inputs           string

	setupS     float64
	ops        float64
	timed      time.Duration
	allocBytes uint64
	heapLiveMB float64
	// hist holds per-op times where each op is timed; opSamples holds
	// per-op means where only a batch of ops can be timed from outside.
	hist      *durHist
	opSamples []float64
	// rates holds the throughput, in ops per host second, of each unit of
	// identical work: a churn batch, a soak chunk of slices, a campaign.
	// ops_per_s is their median. Every op of a unit counts, and a unit the
	// host happened to preempt is one slow sample, not a shift of the
	// figure.
	rates  []float64
	extras []extraMetric
	layers   map[string]float64
	// table is the traced run's per-layer report.
	table string
}

func newOutcome(inputs string) *outcome {
	return &outcome{inputs: inputs, layers: map[string]float64{}}
}

// fail records a failure message; callers count the failed ops.
func (o *outcome) fail(format string, args ...any) {
	o.nfailures++
	if len(o.failures) < 10 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) extra(name string, v float64, unit string) {
	o.extras = append(o.extras, extraMetric{name, v, unit})
}

// profiler writes a CPU profile of the traced pass.
type profiler struct {
	path string
	f    *os.File
}

func (p *profiler) start() error {
	if p == nil {
		return nil
	}
	f, err := os.Create(p.path)
	if err != nil {
		return err
	}
	p.f = f
	return pprof.StartCPUProfile(f)
}

func (p *profiler) stop() {
	if p == nil || p.f == nil {
		return
	}
	pprof.StopCPUProfile()
	if err := p.f.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "autobench: closing %s: %v\n", p.path, err)
	}
	p.f = nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func meanUS(l Layer) float64 {
	if l.Count == 0 {
		return 0
	}
	return float64(l.Total) / float64(l.Count) / 1e3
}

func meanSelfUS(l Layer) float64 {
	if l.Count == 0 {
		return 0
	}
	return float64(l.Raw) / float64(l.Count) / 1e3
}

// finishTrace derives the ledger metrics of a traced pass, writes the
// span file and the per-layer table.
func (o *outcome) finishTrace(rc runConfig, rec *Recorder, ls []Layer, passWall, untracedWall time.Duration) {
	var sum time.Duration
	for _, l := range ls {
		sum += l.Self
	}
	residual := passWall - sum
	o.layers["trace.overhead_frac"] = float64(passWall)/float64(untracedWall) - 1
	o.layers["trace.residual_frac"] = float64(residual) / float64(passWall)

	var sb strings.Builder
	fmt.Fprintf(&sb, "%-26s %10s %14s %14s %14s %8s\n", "layer", "count", "total_ms", "self_ms", "self_us/span", "share")
	for _, l := range ls {
		per := 0.0
		if l.Count > 0 {
			per = float64(l.Raw) / float64(l.Count) / 1e3
		}
		fmt.Fprintf(&sb, "%-26s %10d %14.3f %14.3f %14.3f %7.1f%%\n", l.Name, l.Count,
			float64(l.Total)/1e6, float64(l.Self)/1e6, per, 100*float64(l.Self)/float64(passWall))
	}
	fmt.Fprintf(&sb, "%-26s %10s %14s %14.3f %14s %7.1f%%\n", "(residual)", "-", "-",
		float64(residual)/1e6, "-", 100*float64(residual)/float64(passWall))
	fmt.Fprintf(&sb, "traced wall %.3f ms, untraced wall %.3f ms, tracing overhead %+.1f%%\n",
		float64(passWall)/1e6, float64(untracedWall)/1e6, 100*o.layers["trace.overhead_frac"])
	o.table = sb.String()

	if f, err := os.Create(rc.artifact("trace.json")); err != nil {
		fmt.Fprintf(os.Stderr, "autobench: %v\n", err)
	} else {
		if err := rec.WriteChrome(f); err != nil {
			fmt.Fprintf(os.Stderr, "autobench: writing span file: %v\n", err)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "autobench: %v\n", err)
		}
	}
}

// provenance is the header every output starts with. It never feeds the
// sim_digest.
func provenance(rc runConfig, o *outcome) string {
	rev, modified := "unknown", "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
	}
	groupWorkers := 1
	if rc.workload == "vehicle-soak" {
		groupWorkers = min(rc.workers, soakZones)
	}
	fleetWorkers := rc.workers
	if rc.workload == "vehicle-soak" {
		fleetWorkers = 0
	}
	return fmt.Sprintf("# autobench workload=%s seed=%d seconds=%d trace=%v check=%v\n"+
		"# go=%s goos=%s goarch=%s nproc=%d gomaxprocs=%d fleet_workers=%d group_workers=%d\n"+
		"# vcs.revision=%s vcs.modified=%s\n# input: %s\n",
		rc.workload, rc.seed, rc.seconds, rc.trace, rc.check,
		runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0),
		fleetWorkers, groupWorkers, rev, modified, o.inputs)
}

// pinRE matches a digest recorded in a workload's why: "sim_digest
// <hex>", or "end_digest@<horizon> <hex>" for a horizon-dependent one.
var pinRE = regexp.MustCompile(`(sim_digest|end_digest@\S+) ([0-9a-f]{16})`)

// pinnedDigests returns the digests BENCHMARK.json records for the
// workload at the default seed, keyed "sim_digest" or
// "end_digest@<horizon>".
func pinnedDigests(workload string) map[string]string {
	pins := map[string]string{}
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return pins
	}
	var b struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
	}
	if json.Unmarshal(data, &b) != nil {
		return pins
	}
	for _, w := range b.Workloads {
		if w.Name == workload {
			for _, m := range pinRE.FindAllStringSubmatch(w.Why, -1) {
				pins[m[1]] = m[2]
			}
		}
	}
	return pins
}

// defaultSeed is the seed whose sim_digest BENCHMARK.json pins.
const defaultSeed = 1

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var rc runConfig
	var traceFlag int
	flag.StringVar(&rc.workload, "workload", "", "fleet-churn, vehicle-soak or ota-campaign")
	flag.Uint64Var(&rc.seed, "seed", defaultSeed, "workload seed")
	flag.IntVar(&rc.seconds, "seconds", 10, "input size: about this many seconds of timed work on a 2-core host")
	flag.IntVar(&traceFlag, "trace", 0, "1: traced run reporting per-layer metrics")
	flag.BoolVar(&rc.check, "check", false, "run only the correctness oracles and print sim_digest")
	flag.StringVar(&rc.outDir, "out", filepath.Join(".bench_build", "autobench"), "directory for traced-run artifacts")
	flag.Parse()
	rc.trace = traceFlag == 1

	run, ok := workloads[rc.workload]
	if !ok || rc.seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "autobench: need --workload {fleet-churn|vehicle-soak|ota-campaign}, --seconds >= 1, --trace 0|1\n")
		os.Exit(2)
	}
	// Fleet and kernel-group workers: one per usable core, never more.
	rc.workers = min(runtime.NumCPU(), runtime.GOMAXPROCS(0))
	if rc.trace {
		if err := os.MkdirAll(rc.outDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "autobench: %v\n", err)
			os.Exit(1)
		}
		rc.profile = &profiler{path: rc.artifact("cpu.pprof")}
	}

	o, err := run(rc)
	if err != nil {
		fmt.Fprintf(os.Stderr, "autobench: %s: %v\n", rc.workload, err)
		os.Exit(1)
	}
	if rc.seed == defaultSeed {
		pins := pinnedDigests(rc.workload)
		check := func(key, got string) {
			if pin, ok := pins[key]; ok && pin != got {
				o.failed = o.attempted
				o.fail("%s %s != %s pinned in BENCHMARK.json for seed %d", key, got, pin, defaultSeed)
			}
		}
		check("sim_digest", o.digest)
		if o.endDigest != "" {
			check("end_digest@"+o.endAt, o.endDigest)
		}
	}

	var out strings.Builder
	out.WriteString(provenance(rc, o))
	fmt.Fprintf(&out, "sim_digest %s\n", o.digest)
	if o.endDigest != "" {
		fmt.Fprintf(&out, "end_digest@%s %s\n", o.endAt, o.endDigest)
	}
	metrics := map[string]jsonMetric{}
	line := func(name string, v float64, unit string) {
		if !validMetricName(name) {
			panic("autobench: invalid metric name " + name)
		}
		fmt.Fprintf(&out, "metric %-34s %16.6g %s\n", name, v, unit)
	}
	switch {
	case rc.check:
	case rc.trace:
		out.WriteString(o.table)
		for _, m := range layerMetrics {
			v := o.layers[m.name]
			line(m.name, v, m.unit)
			metrics[m.name] = jsonMetric{v, m.unit}
		}
	default:
		vals := map[string]float64{
			"setup_s":        o.setupS,
			"ops_per_s":      median(o.rates),
			"alloc_b_per_op": float64(o.allocBytes) / o.ops,
			"heap_live_mb":   o.heapLiveMB,
		}
		var samples uint64
		if o.hist != nil {
			samples = o.hist.n
			vals["op_us_p50"] = o.hist.quantile(0.5) / 1e3
		} else {
			samples = uint64(len(o.opSamples))
			vals["op_us_p50"] = median(o.opSamples)
		}
		for _, m := range e2eMetrics {
			line(m.name, vals[m.name], m.unit)
			metrics[m.name] = jsonMetric{vals[m.name], m.unit}
		}
		line("op_samples", float64(samples), "count")
		line("rate_samples", float64(len(o.rates)), "count")
		switch q := highestTail(samples); {
		case o.hist == nil:
			fmt.Fprintf(&out, "metric %-34s %16s (samples are per-campaign means, not single ops)\n", "op_us_tail", "n/a")
		case q == 0:
			fmt.Fprintf(&out, "metric %-34s %16s (fewer than %d samples beyond p90)\n", "op_us_tail", "n/a", minBeyond)
		default:
			line("op_us_"+quantileName(q), o.hist.quantile(q)/1e3, "us")
		}
		for _, e := range o.extras {
			line(e.name, e.value, e.unit)
		}
	}
	line("failed_frac", float64(o.failed)/float64(o.attempted), "fraction")
	sort.Strings(o.failures)
	for _, f := range o.failures {
		fmt.Fprintf(&out, "# FAIL %s\n", f)
	}
	if o.nfailures > len(o.failures) {
		fmt.Fprintf(&out, "# FAIL ... %d more\n", o.nfailures-len(o.failures))
	}
	if rc.trace {
		if err := os.WriteFile(rc.artifact("layers.txt"), []byte(out.String()), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "autobench: %v\n", err)
		}
	}
	res, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int64                 `json:"attempted"`
		Failed    int64                 `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{o.failed == 0 && o.nfailures == 0, o.attempted, o.failed, metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "autobench: %v\n", err)
		os.Exit(1)
	}
	fmt.Print(out.String())
	fmt.Println(string(res))
}
