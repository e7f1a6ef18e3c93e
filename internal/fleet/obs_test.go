package fleet

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"autosec/internal/can"
	"autosec/internal/core"
	"autosec/internal/gateway"
	"autosec/internal/netif"
	"autosec/internal/obs"
	"autosec/internal/sim"
)

func obsTestConfig(vin string, seed uint64) core.Config {
	return core.Config{VIN: vin, Seed: seed, Zonal: &core.ZonalConfig{
		Zones:        3,
		LocalDomains: []core.DomainSpec{{Name: "body", Kind: netif.CAN}},
	}}
}

// obsScenario is driveScenario's quieter sibling for flight-recorder
// tests: its traffic (chassis → infotainment) avoids the IDS tap on
// powertrain, so the untrained detectors stay silent, and every 7th
// vehicle (idx%7==3) quarantines the destination — dropping inbound
// backbone frames with audited "quarantined" verdicts — making exactly
// those vehicles "interesting" to the recorder.
func obsScenario(idx int, v *core.Vehicle) (string, error) {
	k := v.Kernel
	rules := []*gateway.Rule{{
		Name: "open", From: core.DomainChassis, To: []string{core.DomainInfotainment},
		IDLo: 0, IDHi: 0x7FF, Action: gateway.Allow,
	}}
	if v.Zonal != nil {
		v.Zonal.SetRules(rules)
	} else {
		v.Gateway.SetRules(rules)
	}
	c := can.NewController("src")
	v.Buses[core.DomainChassis].Attach(c)
	st := k.Stream("obs-test")
	k.Every(st.Duration(100*sim.Microsecond, sim.Millisecond), 500*sim.Microsecond, func() {
		_ = c.Send(can.Frame{ID: can.ID(0x200 + idx%8), Data: []byte{byte(idx)}}, nil)
	})
	if idx%7 == 3 {
		k.At(2*sim.Millisecond, func() {
			// Quarantine drops are audited on the ingress side, so the
			// destination must be the isolated party: the zone owning
			// infotainment (zonal) or the source domain (central, where
			// frames from a quarantined domain are what gets audited).
			if v.Zonal != nil {
				_ = v.Zonal.QuarantineZoneOf(core.DomainInfotainment)
			} else {
				_ = v.Gateway.Quarantine(core.DomainChassis)
			}
		})
	}
	if err := k.RunUntil(4 * sim.Millisecond); err != nil {
		return "", err
	}
	return fmt.Sprintf("idx=%d steps=%d audit=%d", idx, k.Steps(), v.Audit.Len()), nil
}

// TestDriveObsParInvariance is the tentpole acceptance gate: the merged
// fleet registry (snapshot AND Prometheus exposition bytes) and the kept
// flight-recorder traces must be byte-identical at 1 worker and at 8.
// The sample (a quarter of 160 vehicles plus every incident vehicle)
// overflows DefaultMaxTraces, so the bounded selection is under test too.
func TestDriveObsParInvariance(t *testing.T) {
	const n = 160
	opts := ObsOptions{Metrics: true, TraceRate: 0.25}
	run := func(workers int) *ObsResult {
		_, res, err := DriveObs(context.Background(),
			Driver{Cfg: obsTestConfig("OBS-PAR", 11), N: n, Workers: workers}, opts, obsScenario)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return res
	}
	a, b := run(1), run(8)

	var pa, pb bytes.Buffer
	if err := a.Registry.WritePrometheus(&pa); err != nil {
		t.Fatal(err)
	}
	if err := b.Registry.WritePrometheus(&pb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pa.Bytes(), pb.Bytes()) {
		t.Fatalf("merged registry exposition diverges across worker counts:\n--- par=1\n%s\n--- par=8\n%s", pa.String(), pb.String())
	}
	if pa.Len() == 0 {
		t.Fatal("merged registry is empty — instrumentation did not reach the vehicles")
	}

	if len(a.Traces) != DefaultMaxTraces {
		t.Fatalf("kept %d traces, want the bound %d (the sample overflows it)", len(a.Traces), DefaultMaxTraces)
	}
	if len(a.Traces) != len(b.Traces) {
		t.Fatalf("trace counts diverge: %d vs %d", len(a.Traces), len(b.Traces))
	}
	for i := range a.Traces {
		ta, tb := a.Traces[i], b.Traces[i]
		if ta.Index != tb.Index || ta.Seed != tb.Seed || ta.Interesting != tb.Interesting {
			t.Fatalf("trace %d metadata diverges: %+v vs %+v", i, ta, tb)
		}
		if i > 0 && a.Traces[i-1].Index >= ta.Index {
			t.Fatalf("traces not in index order: %d then %d", a.Traces[i-1].Index, ta.Index)
		}
		var ba, bb bytes.Buffer
		if err := ta.Tracer.WriteChromeTrace(&ba); err != nil {
			t.Fatal(err)
		}
		if err := tb.Tracer.WriteChromeTrace(&bb); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ba.Bytes(), bb.Bytes()) {
			t.Fatalf("trace for vehicle %d diverges across worker counts", ta.Index)
		}
		if ba.Len() < 10 {
			t.Fatalf("trace for vehicle %d is empty", ta.Index)
		}
	}
}

// TestDriveObsTracingKeepsMetrics: turning the flight recorder on must
// not move one metric. With tracing, the driver attaches each pooled
// vehicle's tracer through Instrument(tr, nil) after the first bind, so
// a subsystem that unbinds its metrics on a nil registry (or on Reset)
// would drop every later vehicle's readings from the fleet registry.
// The exposition must match tracing off, at one worker and at four.
func TestDriveObsTracingKeepsMetrics(t *testing.T) {
	const n = 60
	expo := func(rate float64, workers int) []byte {
		_, res, err := DriveObs(context.Background(),
			Driver{Cfg: obsTestConfig("OBS-TRACEMET", 17), N: n, Workers: workers},
			ObsOptions{Metrics: true, TraceRate: rate}, obsScenario)
		if err != nil {
			t.Fatalf("rate=%v workers=%d: %v", rate, workers, err)
		}
		var b bytes.Buffer
		if err := res.Registry.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	want := expo(0, 1)
	if !bytes.Contains(want, []byte("autosec_audit_appends")) {
		t.Fatal("exposition lacks audit_appends — the scenario no longer audits")
	}
	for _, tc := range []struct {
		rate    float64
		workers int
	}{{0, 4}, {1, 1}, {1, 4}} {
		if got := expo(tc.rate, tc.workers); !bytes.Equal(got, want) {
			t.Fatalf("rate=%v workers=%d exposition diverges from tracing off at 1 worker:\n--- want\n%s\n--- got\n%s",
				tc.rate, tc.workers, want, got)
		}
	}
}

// TestDriveObsMergedEqualsUnsharded cross-checks the merge point itself:
// the fleet registry must equal a manual index-order fold over freshly
// instrumented, individually driven vehicles.
func TestDriveObsMergedEqualsUnsharded(t *testing.T) {
	const n = 24
	cfg := obsTestConfig("OBS-FOLD", 7)
	_, res, err := DriveObs(context.Background(),
		Driver{Cfg: cfg, N: n, Workers: 4}, ObsOptions{Metrics: true}, obsScenario)
	if err != nil {
		t.Fatal(err)
	}

	want := obs.NewRegistry()
	pool := core.NewVehiclePool(cfg)
	for idx := 0; idx < n; idx++ {
		v, err := pool.Acquire(VehicleSeed(cfg.Seed, idx))
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		v.Instrument(nil, reg)
		if _, err := obsScenario(idx, v); err != nil {
			t.Fatal(err)
		}
		reg.Materialize()
		pool.Release(v)
		if err := want.Merge(reg); err != nil {
			t.Fatal(err)
		}
	}

	var a, b bytes.Buffer
	if err := want.WritePrometheus(&a); err != nil {
		t.Fatal(err)
	}
	if err := res.Registry.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("DriveObs merge diverges from the manual index-order fold:\n--- manual\n%s\n--- DriveObs\n%s", a.String(), b.String())
	}
}

// TestDriveObsInterestingAlwaysKept pins the forensic half of the flight
// recorder: with a sampling rate too small to select anyone, exactly the
// incident vehicles (obsScenario quarantines idx%7==3) keep traces.
func TestDriveObsInterestingAlwaysKept(t *testing.T) {
	const n = 42
	_, res, err := DriveObs(context.Background(),
		Driver{Cfg: obsTestConfig("OBS-INT", 3), N: n, Workers: 4},
		ObsOptions{TraceRate: 1e-12}, obsScenario)
	if err != nil {
		t.Fatal(err)
	}
	var want []int
	for idx := 0; idx < n; idx++ {
		if idx%7 == 3 {
			want = append(want, idx)
		}
	}
	if len(res.Traces) != len(want) {
		t.Fatalf("kept %d traces, want the %d incident vehicles %v", len(res.Traces), len(want), want)
	}
	for i, tr := range res.Traces {
		if tr.Index != want[i] || !tr.Interesting {
			t.Fatalf("trace %d = {Index:%d Interesting:%v}, want {Index:%d Interesting:true}", i, tr.Index, tr.Interesting, want[i])
		}
		if tr.Seed != VehicleSeed(3, tr.Index) {
			t.Fatalf("trace %d seed mismatch", i)
		}
	}
	if res.Stats.TracesInteresting != len(want) || res.Stats.TracesKept != len(want) {
		t.Fatalf("stats = %+v, want %d interesting traces", res.Stats, len(want))
	}
}

// TestDriveObsMaxTracesPriority: when the sample exceeds the bound,
// incident vehicles win and the kept set is worker-count invariant.
func TestDriveObsMaxTracesPriority(t *testing.T) {
	const n, max = 240, DefaultMaxTraces
	run := func(workers int) *ObsResult {
		_, res, err := DriveObs(context.Background(),
			Driver{Cfg: obsTestConfig("OBS-MAX", 5), N: n, Workers: workers},
			ObsOptions{TraceRate: 1}, obsScenario)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(1), run(8)
	if len(a.Traces) != max {
		t.Fatalf("kept %d traces, want the bound %d (rate=1 samples everyone)", len(a.Traces), max)
	}
	for i := range a.Traces {
		if a.Traces[i].Index != b.Traces[i].Index || a.Traces[i].Interesting != b.Traces[i].Interesting {
			t.Fatalf("kept set diverges across worker counts at %d: %+v vs %+v", i, a.Traces[i], b.Traces[i])
		}
	}
	// All incident vehicles that fit must be present: obsScenario makes
	// 34 of 240 vehicles incidents, which exceeds max, so every kept trace
	// must be an incident one and they must be the lowest-indexed ones.
	for i, tr := range a.Traces {
		if !tr.Interesting {
			t.Fatalf("trace %d (vehicle %d) is non-incident despite incident overflow", i, tr.Index)
		}
		if want := 7*i + 3; tr.Index != want {
			t.Fatalf("trace %d kept vehicle %d, want lowest-indexed incidents first (%d)", i, tr.Index, want)
		}
	}
}

func TestTraceSampledDeterministicAndRateShaped(t *testing.T) {
	const base, n = 99, 20_000
	hits := 0
	for idx := 0; idx < n; idx++ {
		s := TraceSampled(base, idx, 0.1)
		if s != TraceSampled(base, idx, 0.1) {
			t.Fatal("sampling decision must be deterministic")
		}
		if s {
			hits++
		}
	}
	if hits < n/10-400 || hits > n/10+400 {
		t.Fatalf("rate 0.1 over %d vehicles kept %d, want ~%d", n, hits, n/10)
	}
	if TraceSampled(base, 1, 0) || !TraceSampled(base, 1, 1) {
		t.Fatal("rate 0 must drop and rate 1 must keep")
	}
}

// TestFleetMergeSteadyStateAllocs is the CI alloc gate for the merge hot
// path: folding another vehicle's readings must not touch the allocator.
// Both merge paths are pinned — the flat shard sum DriveObs uses at the
// barrier (Accumulate into a warm accumulator), and the
// registry-to-registry Merge it is pinned byte-identical to, once the
// fleet registry holds the union of keys.
func TestFleetMergeSteadyStateAllocs(t *testing.T) {
	cfg := obsTestConfig("OBS-ALLOC", 13)
	pool := core.NewVehiclePool(cfg)
	v, err := pool.Acquire(VehicleSeed(cfg.Seed, 0))
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	v.Instrument(nil, reg)
	if _, err := obsScenario(0, v); err != nil {
		t.Fatal(err)
	}
	reg.Materialize()

	fleet := obs.NewRegistry()
	if err := fleet.Merge(reg); err != nil { // warm-up creates the keys
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		if err := fleet.Merge(reg); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("fleet registry merge steady state allocates %v allocs/vehicle, want 0", allocs)
	}

	layout := obs.NewShardLayout(reg)
	shard := layout.NewArena(1).Capture()
	pool.Release(v)
	var acc obs.Shard
	if err := layout.Accumulate(&acc, shard); err != nil { // warm-up sizes the accumulator
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		if err := layout.Accumulate(&acc, shard); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("fleet shard accumulate steady state allocates %v allocs/vehicle, want 0", allocs)
	}
}

type countingObserver struct {
	mu       sync.Mutex
	vehicles int
	done     int
	last     DriveStats
}

func (c *countingObserver) VehicleDone(worker, done, total int) {
	c.mu.Lock()
	c.vehicles++
	c.mu.Unlock()
}

func (c *countingObserver) DriveDone(s DriveStats) {
	c.mu.Lock()
	c.done++
	c.last = s
	c.mu.Unlock()
}

// TestDriveObsObserverAndStats covers the telemetry half: per-vehicle
// callbacks, the one-shot completion callback, and pool stats. CI's race
// job runs this under -race, covering the concurrent callback contract
// and the atomic abort flag.
func TestDriveObsObserverAndStats(t *testing.T) {
	const n, workers = 40, 4
	obsv := &countingObserver{}
	_, res, err := DriveObs(context.Background(),
		Driver{Cfg: core.Config{VIN: "OBS-STAT", Seed: 2}, N: n, Workers: workers},
		ObsOptions{Metrics: true, Observer: obsv}, obsScenario)
	if err != nil {
		t.Fatal(err)
	}
	if obsv.vehicles != n || obsv.done != 1 {
		t.Fatalf("observer saw %d vehicles and %d completions, want %d and 1", obsv.vehicles, obsv.done, n)
	}
	s := res.Stats
	if s.Vehicles != n || s.Workers != workers {
		t.Fatalf("stats population = %+v, want %d vehicles on %d workers", s, n, workers)
	}
	if s.PoolMisses != workers || s.PoolHits != n-workers {
		t.Fatalf("pool stats = %d hits / %d misses, want %d / %d (one construction per worker)",
			s.PoolHits, s.PoolMisses, n-workers, workers)
	}
	if s.Wall <= 0 || s.VehiclesPerSec <= 0 {
		t.Fatalf("wall-clock stats must be populated: %+v", s)
	}
	if obsv.last.Vehicles != n {
		t.Fatalf("DriveDone stats = %+v", obsv.last)
	}
}

// TestDriveObsAbortUnderLoad exercises the atomic abort flag with the
// observability plane attached across many workers; the race job runs it
// under -race (satellite: mutex-per-vehicle replaced by atomic.Bool).
func TestDriveObsAbortUnderLoad(t *testing.T) {
	boom := errors.New("boom")
	_, _, err := DriveObs(context.Background(),
		Driver{Cfg: core.Config{VIN: "OBS-ABORT", Seed: 4}, N: 64, Workers: 8},
		ObsOptions{Metrics: true, TraceRate: 0.5},
		func(idx int, v *core.Vehicle) (string, error) {
			if idx >= 24 {
				return "", boom
			}
			return obsScenario(idx, v)
		})
	if err == nil || !errors.Is(err, boom) || !strings.Contains(err.Error(), "fleet: vehicle ") {
		t.Fatalf("want a per-vehicle wrapped boom, got %v", err)
	}
}

// perZoneScenario drives a per-zone-kernel vehicle with periodic traffic
// on each standard domain's owning kernel, so every member kernel
// dispatches, and one cross-zone route, so frames cross the backbone.
// It returns the group's step count.
func perZoneScenario(idx int, v *core.Vehicle) (uint64, error) {
	v.Zonal.SetRules([]*gateway.Rule{{
		Name: "open", From: core.DomainChassis, To: []string{core.DomainInfotainment},
		IDLo: 0, IDHi: 0x7FF, Action: gateway.Allow,
	}})
	for i, dom := range []string{core.DomainPowertrain, core.DomainChassis, core.DomainInfotainment} {
		k := v.KernelFor(dom)
		c := can.NewController(fmt.Sprintf("pz%d", i))
		v.Buses[dom].Attach(c)
		id := can.ID(0x200 + 0x10*i + idx%8)
		st := k.Stream("pz-phase")
		k.Every(st.Duration(100*sim.Microsecond, sim.Millisecond), 500*sim.Microsecond, func() {
			_ = c.Send(can.Frame{ID: id, Data: []byte{byte(idx)}}, nil)
		})
	}
	if err := v.RunUntil(4 * sim.Millisecond); err != nil {
		return 0, err
	}
	return v.Group.Steps(), nil
}

// TestDriveObsPerZoneFlightRecorder is the absolute oracle for tracing
// per-zone-kernel vehicles: every member kernel records into the
// vehicle's one ring, so a kept trace whose ring dropped nothing holds
// exactly one kernel dispatch event per event the group stepped, and the
// merged kernel/steps reading is the fleet's total. The kept traces and
// the exposition must be byte-identical at 1, 2 and 3 workers.
func TestDriveObsPerZoneFlightRecorder(t *testing.T) {
	const n = 24
	cfg := core.Config{VIN: "OBS-PZK", Seed: 6, Zonal: &core.ZonalConfig{Zones: 3, PerZoneKernels: true}}
	type run struct {
		steps []uint64
		res   *ObsResult
		prom  []byte
	}
	drive := func(workers int) run {
		steps, res, err := DriveObs(context.Background(), Driver{Cfg: cfg, N: n, Workers: workers},
			ObsOptions{Metrics: true, TraceRate: 1}, perZoneScenario)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var b bytes.Buffer
		if err := res.Registry.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		return run{steps, res, b.Bytes()}
	}
	chrome := func(tr *obs.Tracer) []byte {
		var b bytes.Buffer
		if err := tr.WriteChromeTrace(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}

	a := drive(1)
	var total uint64
	for _, s := range a.steps {
		total += s
	}
	var merged float64
	for _, m := range a.res.Registry.Snapshot() {
		if m.Key == "kernel/steps" {
			merged = m.Value
		}
	}
	if merged != float64(total) {
		t.Fatalf("merged kernel/steps = %v, want the fleet's %d group steps", merged, total)
	}
	if len(a.res.Traces) != n {
		t.Fatalf("kept %d traces, want all %d vehicles", len(a.res.Traces), n)
	}
	checked := 0
	for _, vt := range a.res.Traces {
		tr := vt.Tracer
		if tr.Dropped() > 0 {
			continue
		}
		dispatches := 0
		for _, e := range tr.Events() {
			if tr.LabelString(e.Sub) == "kernel" && tr.LabelString(e.Name) == "dispatch" {
				dispatches++
			}
		}
		if uint64(dispatches) != a.steps[vt.Index] {
			t.Fatalf("vehicle %d: %d dispatch events traced, group stepped %d", vt.Index, dispatches, a.steps[vt.Index])
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("every kept ring dropped events: the dispatch count checked nothing")
	}

	for _, workers := range []int{2, 3} {
		b := drive(workers)
		if !bytes.Equal(a.prom, b.prom) {
			t.Fatalf("workers=%d: exposition diverges from 1 worker:\n--- 1\n%s\n--- %d\n%s", workers, a.prom, workers, b.prom)
		}
		if len(b.res.Traces) != len(a.res.Traces) {
			t.Fatalf("workers=%d: kept %d traces, 1 worker kept %d", workers, len(b.res.Traces), len(a.res.Traces))
		}
		for i, ta := range a.res.Traces {
			tb := b.res.Traces[i]
			if ta.Index != tb.Index || ta.Seed != tb.Seed || ta.Interesting != tb.Interesting {
				t.Fatalf("workers=%d: trace %d metadata diverges: %+v vs %+v", workers, i, ta, tb)
			}
			if !bytes.Equal(chrome(ta.Tracer), chrome(tb.Tracer)) {
				t.Fatalf("workers=%d: trace of vehicle %d diverges from 1 worker", workers, ta.Index)
			}
		}
	}
}

func TestProgressWriter(t *testing.T) {
	var buf bytes.Buffer
	pw := NewProgressWriter(&buf, 20)
	_, res, err := DriveObs(context.Background(),
		Driver{Cfg: core.Config{VIN: "OBS-PW", Seed: 8}, N: 20, Workers: 2},
		ObsOptions{Observer: pw}, obsScenario)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "20/20 vehicles (100%)") {
		t.Fatalf("progress output missing completion line:\n%s", out)
	}
	if !strings.Contains(out, "vehicles/sec") || !strings.Contains(out, "pool") {
		t.Fatalf("summary line missing:\n%s", out)
	}
	_ = res
}

func TestWriteChromeTraces(t *testing.T) {
	dir := t.TempDir()
	_, res, err := DriveObs(context.Background(),
		Driver{Cfg: obsTestConfig("OBS-DIR", 9), N: 14, Workers: 2},
		ObsOptions{TraceRate: 1e-12}, obsScenario)
	if err != nil {
		t.Fatal(err)
	}
	paths, err := res.WriteChromeTraces(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != len(res.Traces) || len(paths) == 0 {
		t.Fatalf("wrote %d files for %d traces", len(paths), len(res.Traces))
	}
	if !strings.HasSuffix(paths[0], "vehicle-000003.trace.json") {
		t.Fatalf("unexpected first trace path %q (vehicle 3 is the first incident)", paths[0])
	}
}
