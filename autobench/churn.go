package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"time"

	"autosec/internal/can"
	"autosec/internal/core"
	"autosec/internal/fleet"
	"autosec/internal/gateway"
	"autosec/internal/netif"
	"autosec/internal/sim"
)

// fleet-churn: many short pooled vehicles through the fleet driver with
// observability off. Each vehicle is the canonical 2-zone fleet scenario:
// infotainment sends to powertrain across the backbone every 500us, one
// vehicle in seven quarantines its infotainment zone at 2ms, and the
// vehicle runs 4ms of simulated time. The cost per vehicle is pool reset,
// scenario set-up and short dispatch; no crypto, obs or IDS models run.
const (
	churnBatch    = 2000 // vehicles per fleet.DriveObs call
	churnHorizon  = 4 * sim.Millisecond
	churnPeriod   = 500 * sim.Microsecond
	churnSetups   = 31 // set-up samples; the median is setup_s
	churnSetupRep = 64 // set-ups per set-up sample
	churnOracleEv = 97 // every 97th vehicle is rebuilt fresh by the oracle
	churnTraced   = 4  // batches per pass in a traced run
	// churnPerSecond sizes the input: batches per requested second, about
	// one second of driving per second on a 2-core host.
	churnPerSecond = 18
)

func churnConfig(seed uint64) core.Config {
	return core.Config{VIN: "AUTOBENCH-CHURN", Seed: seed, Zonal: &core.ZonalConfig{
		Zones:        2,
		LocalDomains: []core.DomainSpec{{Name: "body", Kind: netif.CAN}},
	}}
}

// vehicleFP is the per-vehicle fingerprint the oracles compare: it moves
// if the simulated behaviour moves, and never with host speed.
type vehicleFP struct {
	Steps                 uint64
	Audit                 int64
	Backbone              int64
	Forwarded, Blocked    int64
	FramesOK, FramesError int64
	Switched              int64
}

// churn holds one fleet-churn run's inputs and per-batch scratch.
type churn struct {
	cfg     core.Config
	workers int
	// ends[i] is when vehicle i's callback returned, starts[i] when it was
	// entered, both on the recorder clock (or the run clock untraced).
	starts, ends []time.Duration
	clock        *Recorder
	// shardOf maps a vehicle index to its fleet shard: the driver hands
	// each worker a contiguous index range, sizes differing by at most one.
	shardOf []int
	tracks  []*Track
	coord   *Track
	drv     SpanRef
}

// shardBounds returns the contiguous [lo, hi) shard of worker w when n
// vehicles are split over workers — the fleet driver's partition.
func shardBounds(n, workers, w int) (lo, hi int) {
	if workers > n {
		workers = n
	}
	return w * n / workers, (w + 1) * n / workers
}

func newChurn(seed uint64, workers int) *churn {
	c := &churn{cfg: churnConfig(seed), workers: workers,
		starts: make([]time.Duration, churnBatch), ends: make([]time.Duration, churnBatch),
		shardOf: make([]int, churnBatch), clock: NewRecorder(false)}
	for w := 0; w < workers; w++ {
		lo, hi := shardBounds(churnBatch, workers, w)
		for i := lo; i < hi; i++ {
			c.shardOf[i] = w
		}
	}
	return c
}

// scenario is the benchmark's copy of the canonical fleet scenario.
func (c *churn) scenario(idx int, v *core.Vehicle) (vehicleFP, error) {
	var tr *Track
	if c.tracks != nil {
		tr = c.tracks[c.shardOf[idx]]
	}
	c.starts[idx] = c.clock.Now()
	op := int64(idx)
	tr.Begin("bench.vehicle", op, c.drv)
	k := v.Kernel

	tr.Begin("zonal.SetRules", op, noSpan)
	v.Zonal.SetRules([]*gateway.Rule{{
		Name: "churn", From: core.DomainInfotainment, To: []string{core.DomainPowertrain},
		IDLo: 0, IDHi: uint32(can.MaxStandardID), Action: gateway.Allow,
	}})
	tr.End()

	tr.Begin("can.Attach", op, noSpan)
	tx := can.NewController("churn-ecu")
	v.Buses[core.DomainInfotainment].Attach(tx)
	tr.End()

	tr.Begin("sim.schedule", op, noSpan)
	st := k.Stream("churn-probe")
	k.Every(st.Duration(100*sim.Microsecond, sim.Millisecond), churnPeriod, func() {
		tr.Begin("can.Send", op, noSpan)
		_ = tx.Send(can.Frame{ID: can.ID(0x100 + idx%8), Data: []byte{byte(idx)}}, nil)
		tr.End()
	})
	tr.End()
	if idx%7 == 3 {
		tr.Begin("sim.schedule", op, noSpan)
		k.At(2*sim.Millisecond, func() {
			tr.Begin("zonal.QuarantineZoneOf", op, noSpan)
			_ = v.Zonal.QuarantineZoneOf(core.DomainInfotainment)
			tr.End()
		})
		tr.End()
	}

	tr.Begin("sim.RunUntil", op, noSpan)
	err := k.RunUntil(churnHorizon)
	tr.End()

	tr.Begin("bench.fingerprint", op, noSpan)
	fp := churnFingerprint(v)
	tr.End()
	tr.End() // bench.vehicle
	c.ends[idx] = c.clock.Now()
	return fp, err
}

func churnFingerprint(v *core.Vehicle) vehicleFP {
	fp := vehicleFP{
		Steps:    v.Kernel.Steps(),
		Audit:    int64(v.Audit.Len()),
		Backbone: v.Zonal.BackboneFramesTotal(),
		Switched: v.BackboneSwitch.FramesForwarded.Value,
	}
	for _, z := range v.Zonal.Zones() {
		fp.Forwarded += z.GW.Forwarded.Value
		fp.Blocked += z.GW.Blocked.Value
	}
	for _, b := range v.Buses {
		fp.FramesOK += b.FramesOK.Value
		fp.FramesError += b.FramesErrored.Value
	}
	return fp
}

// drive runs one batch and returns the fingerprints, pool misses and the
// batch's start and end on the run clock.
func (c *churn) drive(workers int) ([]vehicleFP, int, time.Duration, time.Duration, error) {
	t0 := c.clock.Now()
	fps, res, err := fleet.DriveObs(context.Background(),
		fleet.Driver{Cfg: c.cfg, N: churnBatch, Workers: workers}, fleet.ObsOptions{}, c.scenario)
	t1 := c.clock.Now()
	if err != nil {
		return nil, 0, t0, t1, err
	}
	return fps, res.Stats.PoolMisses, t0, t1, nil
}

// shardTimeline is one shard's callback intervals within a batch, in
// index order, plus the batch bounds — the input to gap attribution.
type shardTimeline struct {
	driveStart, driveEnd time.Duration
	starts, ends         []time.Duration
}

// gapAttribution splits a shard's time into the first gap (pool build:
// the worker's first Acquire constructs a vehicle), the gaps between
// consecutive callbacks (Release, Acquire and Reset), and the tail after
// its last callback until the drive returns.
type gapAttribution struct {
	build  time.Duration
	resets []time.Duration
	tail   time.Duration
	// ops are the per-vehicle op times: from the end of the previous
	// callback in the shard (the drive start for the first) to the end of
	// this callback.
	ops []time.Duration
}

func attributeGaps(t shardTimeline) gapAttribution {
	var g gapAttribution
	if len(t.starts) == 0 {
		g.tail = t.driveEnd - t.driveStart
		return g
	}
	g.build = t.starts[0] - t.driveStart
	prev := t.driveStart
	for i := range t.starts {
		if i > 0 {
			g.resets = append(g.resets, t.starts[i]-t.ends[i-1])
		}
		g.ops = append(g.ops, t.ends[i]-prev)
		prev = t.ends[i]
	}
	g.tail = t.driveEnd - prev
	return g
}

func (c *churn) timeline(w int, t0, t1 time.Duration) shardTimeline {
	lo, hi := shardBounds(churnBatch, c.workers, w)
	return shardTimeline{driveStart: t0, driveEnd: t1, starts: c.starts[lo:hi], ends: c.ends[lo:hi]}
}

func digestFPs(fps []vehicleFP) string {
	h := sha256.New()
	var b [8]byte
	for _, fp := range fps {
		for _, x := range []int64{int64(fp.Steps), fp.Audit, fp.Backbone, fp.Forwarded,
			fp.Blocked, fp.FramesOK, fp.FramesError, fp.Switched} {
			binary.LittleEndian.PutUint64(b[:], uint64(x))
			h.Write(b[:])
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

// runChurn executes the fleet-churn workload.
func runChurn(rc runConfig) (*outcome, error) {
	c := newChurn(rc.seed, rc.workers)
	n := rc.seconds * churnPerSecond
	out := newOutcome(fmt.Sprintf("%d batches x %d vehicles (the same batch each time), zones=2, horizon=%v, period=%v, quarantine=1/7",
		n, churnBatch, churnHorizon, churnPeriod))

	// Set-up: each fleet worker builds its pool, whose first Acquire pays
	// the worker's one NewVehicle. The benchmark does the same through the
	// public pool API, one fresh pool per worker, serially, so the latency
	// of waking idle CPUs stays out. A sample is churnSetupRep set-ups; the
	// median sample, per set-up, is setup_s.
	var setups []float64
	for i := 0; i < churnSetups; i++ {
		t0 := time.Now()
		for j := 0; j < churnSetupRep; j++ {
			for w := 0; w < rc.workers; w++ {
				if _, err := core.NewVehiclePool(c.cfg).Acquire(fleet.VehicleSeed(c.cfg.Seed, w)); err != nil {
					return nil, err
				}
			}
		}
		setups = append(setups, time.Since(t0).Seconds()/churnSetupRep)
	}
	out.setupS = median(setups)

	// Oracles, outside the timed phase: the batch at 1 worker is the
	// reference every timed batch must reproduce, and a sample of its
	// vehicles rebuilt fresh with core.NewVehicle must match the pooled run.
	ref, _, _, _, err := c.drive(1)
	if err != nil {
		return nil, err
	}
	out.digest = digestFPs(ref)
	for idx := 0; idx < churnBatch; idx += churnOracleEv {
		cfg := c.cfg
		cfg.Seed = fleet.VehicleSeed(c.cfg.Seed, idx)
		v, err := core.NewVehicle(cfg)
		if err != nil {
			return nil, err
		}
		fp, err := c.scenario(idx, v)
		out.attempted++
		if err != nil || fp != ref[idx] {
			out.failed++
			out.fail("fresh rebuild of vehicle %d: %+v != pooled %+v (err %v)", idx, fp, ref[idx], err)
		}
	}
	if rc.check {
		fps, _, _, _, err := c.drive(rc.workers)
		if err != nil {
			return nil, err
		}
		out.checkBatch(fps, ref)
		return out, nil
	}
	if rc.trace {
		return c.traced(rc, out, ref)
	}

	// Timed phase: n drives of the batch.
	var hist durHist
	var timed time.Duration
	var alloc uint64
	var steps uint64
	batches := 0
	for batches < n {
		m0 := readMem()
		fps, _, t0, t1, err := c.drive(rc.workers)
		m1 := readMem()
		timed += t1 - t0
		alloc += m1.allocBytes - m0.allocBytes
		out.rates = append(out.rates, churnBatch/(t1-t0).Seconds())
		batches++
		if err != nil {
			out.attempted += churnBatch
			out.failed += churnBatch
			out.fail("batch %d: %v", batches, err)
			continue
		}
		for w := 0; w < min(rc.workers, churnBatch); w++ {
			for _, d := range attributeGaps(c.timeline(w, t0, t1)).ops {
				hist.add(d)
			}
		}
		out.checkBatch(fps, ref)
		for _, fp := range fps {
			steps += fp.Steps
		}
	}
	ops := float64(batches * churnBatch)
	out.heapLiveMB = liveHeapMB()
	out.ops, out.timed, out.allocBytes, out.hist = ops, timed, alloc, &hist
	out.extra("vehicles_per_s", ops/timed.Seconds(), "1/s")
	out.extra("sim_events_per_s", float64(steps)/timed.Seconds(), "1/s")
	out.extra("sim_x_realtime", ops*churnHorizon.Seconds()/timed.Seconds(), "x")
	return out, nil
}

// checkBatch compares a driven batch vehicle by vehicle with the 1-worker
// reference; each mismatching vehicle is a failed op.
func (o *outcome) checkBatch(fps, ref []vehicleFP) {
	o.attempted += int64(len(ref))
	if len(fps) != len(ref) {
		o.failed += int64(len(ref))
		o.fail("batch returned %d vehicles, want %d", len(fps), len(ref))
		return
	}
	for i := range ref {
		if fps[i] != ref[i] {
			o.failed++
			o.fail("vehicle %d: %+v != 1-worker reference %+v", i, fps[i], ref[i])
		}
	}
}

// traced runs a fixed number of batches untraced, then the same batches
// traced, and derives the per-layer metrics from the traced pass.
func (c *churn) traced(rc runConfig, out *outcome, ref []vehicleFP) (*outcome, error) {
	untraced := time.Now()
	for b := 0; b < churnTraced; b++ {
		fps, _, _, _, err := c.drive(rc.workers)
		if err != nil {
			return nil, err
		}
		out.checkBatch(fps, ref)
	}
	untracedWall := time.Since(untraced)

	rec := NewRecorder(rc.profile != nil)
	rec.Label("fleet.Drive", "bench.vehicle", "zonal.SetRules", "can.Attach", "sim.schedule",
		"can.Send", "zonal.QuarantineZoneOf", "sim.RunUntil", "bench.fingerprint", "bench.check")
	c.clock = rec
	c.coord = rec.NewTrack("coordinator", 1, "")
	w := min(rc.workers, churnBatch)
	c.tracks = make([]*Track, w)
	for i := range c.tracks {
		c.tracks[i] = rec.NewTrack(fmt.Sprintf("shard %d", i), 1/float64(w), "fleet.Drive")
	}
	if err := rc.profile.start(); err != nil {
		return nil, err
	}
	passStart := rec.Now()
	var misses int
	var sum vehicleFP
	var busy, tails []float64
	for b := 0; b < churnTraced; b++ {
		c.drv = c.coord.Begin("fleet.Drive", int64(b), noSpan)
		fps, m, t0, t1, err := c.drive(rc.workers)
		c.coord.End()
		if err != nil {
			return nil, err
		}
		c.coord.Begin("bench.check", int64(b), noSpan)
		misses += m
		firstDone := t1
		for s := 0; s < w; s++ {
			tl := c.timeline(s, t0, t1)
			g := attributeGaps(tl)
			tr := c.tracks[s]
			tr.Add(Span{Name: "core.build", Start: t0, End: t0 + g.build, Parent: c.drv, Op: int64(b)})
			for i, r := range g.resets {
				tr.Add(Span{Name: "core.reset", Start: tl.starts[i+1] - r, End: tl.starts[i+1], Parent: c.drv, Op: int64(b)})
			}
			last := t1 - g.tail
			tr.Add(Span{Name: "fleet.tail", Start: last, End: t1, Parent: c.drv, Op: int64(b)})
			busy = append(busy, float64(last-t0)/float64(t1-t0))
			if last < firstDone {
				firstDone = last
			}
		}
		tails = append(tails, float64(t1-firstDone)/1e6)
		out.checkBatch(fps, ref)
		for _, fp := range fps {
			sum.Steps += fp.Steps
			sum.Backbone += fp.Backbone
			sum.Forwarded += fp.Forwarded
			sum.Blocked += fp.Blocked
			sum.FramesOK += fp.FramesOK
			sum.FramesError += fp.FramesError
			sum.Switched += fp.Switched
		}
		c.coord.End()
	}
	passWall := rec.Now() - passStart
	rc.profile.stop()
	c.tracks, c.coord, c.drv, c.clock = nil, nil, noSpan, NewRecorder(false)

	ops := float64(churnTraced * churnBatch)
	ls := rec.Layers()
	L := out.layers
	L["core.reset_us"] = meanUS(layerOf(ls, "core.reset"))
	L["core.pool_misses"] = float64(misses)
	L["core.build_ms"] = meanUS(layerOf(ls, "core.build")) / 1e3
	L["fleet.busy_frac"] = mean(busy)
	L["fleet.tail_wait_ms"] = mean(tails)
	L["zonal.set_rules_us"] = meanUS(layerOf(ls, "zonal.SetRules"))
	L["zonal.quarantine_us"] = meanUS(layerOf(ls, "zonal.QuarantineZoneOf"))
	L["sim.schedule_us"] = meanUS(layerOf(ls, "sim.schedule"))
	run := layerOf(ls, "sim.RunUntil")
	L["sim.run_us"] = meanUS(run)
	L["sim.run_self_us"] = meanSelfUS(run)
	L["sim.steps_per_op"] = float64(sum.Steps) / ops
	L["sim.ns_per_step"] = float64(run.Total) / float64(sum.Steps)
	L["can.send_ns"] = meanUS(layerOf(ls, "can.Send")) * 1e3
	L["can.frames_ok_per_op"] = float64(sum.FramesOK) / ops
	L["can.frames_errored"] = float64(sum.FramesError)
	L["gateway.forwarded_per_op"] = float64(sum.Forwarded) / ops
	L["gateway.blocked_per_op"] = float64(sum.Blocked) / ops
	L["zonal.backbone_frames_per_op"] = float64(sum.Backbone) / ops
	L["ethernet.frames_forwarded_per_op"] = float64(sum.Switched) / ops
	out.finishTrace(rc, rec, ls, passWall, untracedWall)
	return out, nil
}
