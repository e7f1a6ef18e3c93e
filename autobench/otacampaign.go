package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"runtime"
	"time"

	"autosec/internal/campaign"
	"autosec/internal/obs"
)

// ota-campaign: a staged OTA campaign under a two-key signing compromise
// from wave 1, answered by trust-epoch rotation. Reads are memoized
// verification (one cold signature check per published artifact, cache
// hits for the rest of the fleet), the metrics plane is on for every
// vehicle, and the writes are the mid-campaign rotation: SHE
// re-provisioning of the whole fleet, a trust-epoch swap and cold
// re-verification. Each campaign is provisioned by campaign.New outside
// the timed phase and run by Engine.Run inside it.
const (
	otaFleet  = 2000
	otaModels = 4
	otaTraced = 20 // campaigns per pass in a traced run
	// otaPerSecond sizes the input: campaigns per requested second, about
	// one second of Engine.Run per second on a 2-core host.
	otaPerSecond = 20
)

func otaConfig(seed uint64, workers int) campaign.Config {
	return campaign.Config{
		Fleet:   otaFleet,
		Models:  otaModels,
		Workers: workers,
		Seed:    seed,
		Strategy: campaign.Strategy{Name: "conservative", Canary: 16, Growth: 4,
			AbortThreshold: 0.5},
		Attack:        campaign.AttackPlan{Kind: campaign.AttackTwoKey, FromWave: 1},
		RotateAtWave:  -1,
		RotateOnBlast: true,
	}
}

// campaignRun is one provisioned-and-run campaign: host time of New and
// Run.
type campaignRun struct {
	eng        *campaign.Engine
	res        *campaign.Result
	newD, runD time.Duration
	alloc      uint64
	checkins   int64
}

func runCampaign(cfg campaign.Config) (*campaignRun, error) {
	t0 := time.Now()
	eng, err := campaign.New(cfg)
	if err != nil {
		return nil, err
	}
	r := &campaignRun{eng: eng, newD: time.Since(t0)}
	m0 := readMem()
	t1 := time.Now()
	res, err := eng.Run(context.Background())
	r.runD = time.Since(t1)
	r.alloc = readMem().allocBytes - m0.allocBytes
	if err != nil {
		return nil, err
	}
	r.res = res
	r.checkins = counter(res.Registry, "campaign/checkins")
	return r, nil
}

func counter(reg *obs.Registry, key string) int64 {
	for _, m := range reg.Snapshot() {
		if m.Key == key {
			return int64(m.Value)
		}
	}
	return 0
}

// campaignDigest hashes everything the campaign reports that is a pure
// function of its inputs: the rendered result and the merged registry.
func campaignDigest(res *campaign.Result) string {
	h := sha256.New()
	h.Write([]byte(res.Render()))
	for _, m := range res.Registry.Snapshot() {
		fmt.Fprintf(h, "%s %s %s\n", m.Key, m.Kind, obs.FormatValue(m.Value))
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

// checkCampaign is the campaign oracle: outcome counts sum to the fleet,
// exactly one rotation happened, evil installs appear only in attacked
// waves before the rotation, and the digest matches the 1-worker run. A
// violation fails every check-in of the campaign.
func (o *outcome) checkCampaign(r *campaignRun) {
	o.attempted += r.checkins
	var problems []string
	total := 0
	for _, n := range r.res.Outcomes {
		total += n
	}
	if total != otaFleet {
		problems = append(problems, fmt.Sprintf("outcomes sum to %d, fleet is %d", total, otaFleet))
	}
	if r.res.Rotations != 1 {
		problems = append(problems, fmt.Sprintf("%d rotations, want 1", r.res.Rotations))
	}
	rotated := false
	for i, w := range r.res.Waves {
		rotated = rotated || w.Rotated
		if w.EvilInstalls > 0 && (!w.Attacked || rotated) {
			problems = append(problems, fmt.Sprintf("wave %d: %d evil installs (attacked=%v, after rotation=%v)",
				i, w.EvilInstalls, w.Attacked, rotated))
		}
	}
	evil := 0
	for _, w := range r.res.Waves {
		evil += w.EvilInstalls
	}
	if evil == 0 {
		problems = append(problems, "no evil installs: the two-key attack did not land")
	}
	if d := campaignDigest(r.res); d != o.digest {
		problems = append(problems, fmt.Sprintf("sim_digest %s != 1-worker reference %s", d, o.digest))
	}
	if len(problems) > 0 {
		o.failed += r.checkins
		for _, p := range problems {
			o.fail("campaign: %s", p)
		}
	}
}

func runOTA(rc runConfig) (*outcome, error) {
	n := rc.seconds * otaPerSecond
	out := newOutcome(fmt.Sprintf("%d campaigns x fleet=%d vehicles, models=%d, canary=16, growth=4, abort=0.5, two-key attack from wave 1, rotate on blast",
		n, otaFleet, otaModels))
	// Oracle reference: the same campaign at one fleet worker.
	ref, err := runCampaign(otaConfig(rc.seed, 1))
	if err != nil {
		return nil, err
	}
	out.digest = campaignDigest(ref.res)
	out.checkCampaign(ref)
	ref = nil
	if rc.check {
		r, err := runCampaign(otaConfig(rc.seed, rc.workers))
		if err != nil {
			return nil, err
		}
		out.checkCampaign(r)
		return out, nil
	}
	if rc.trace {
		return traceOTA(rc, out)
	}

	// Engine.Run cannot be timed per check-in from outside, so the op time
	// is a campaign's host time over its check-ins. Every campaign has the
	// same input, so each is one unit of identical work.
	var setups, perOp []float64
	var timed time.Duration
	var alloc uint64
	var checkins int64
	var last *campaignRun
	for i := 0; i < n; i++ {
		last = nil
		r, err := runCampaign(otaConfig(rc.seed, rc.workers))
		if err != nil {
			return nil, err
		}
		setups = append(setups, r.newD.Seconds())
		timed += r.runD
		alloc += r.alloc
		checkins += r.checkins
		perOp = append(perOp, float64(r.runD)/1e3/float64(r.checkins))
		out.rates = append(out.rates, float64(r.checkins)/r.runD.Seconds())
		out.checkCampaign(r)
		last = r
	}
	out.heapLiveMB = liveHeapMB()
	runtime.KeepAlive(last)
	out.setupS = median(setups)
	out.ops, out.timed, out.allocBytes = float64(checkins), timed, alloc
	out.opSamples = perOp
	out.extra("checkins_per_s", float64(checkins)/timed.Seconds(), "1/s")
	out.extra("vehicles_per_s", float64(otaFleet*len(perOp))/timed.Seconds(), "1/s")
	out.extra("campaigns", float64(len(perOp)), "count")
	return out, nil
}

// traceOTA runs a fixed number of campaigns untraced, then the same
// campaigns traced. Engine.Run hides its internals, so it is one opaque
// span per campaign.
func traceOTA(rc runConfig, out *outcome) (*outcome, error) {
	var untracedWall time.Duration
	for i := 0; i < otaTraced; i++ {
		r, err := runCampaign(otaConfig(rc.seed, rc.workers))
		if err != nil {
			return nil, err
		}
		untracedWall += r.newD + r.runD
		out.checkCampaign(r)
	}

	rec := NewRecorder(rc.profile != nil)
	rec.Label("campaign.New", "campaign.Run", "bench.check")
	coord := rec.NewTrack("coordinator", 1, "")
	if err := rc.profile.start(); err != nil {
		return nil, err
	}
	passStart := rec.Now()
	var news, runs []float64
	var last *campaignRun
	for i := 0; i < otaTraced; i++ {
		cfg := otaConfig(rc.seed, rc.workers)
		coord.Begin("campaign.New", int64(i), noSpan)
		t0 := time.Now()
		eng, err := campaign.New(cfg)
		newD := time.Since(t0)
		coord.End()
		if err != nil {
			return nil, err
		}
		coord.Begin("campaign.Run", int64(i), noSpan)
		t1 := time.Now()
		res, err := eng.Run(context.Background())
		runD := time.Since(t1)
		coord.End()
		if err != nil {
			return nil, err
		}
		coord.Begin("bench.check", int64(i), noSpan)
		last = &campaignRun{eng: eng, res: res, newD: newD, runD: runD,
			checkins: counter(res.Registry, "campaign/checkins")}
		out.checkCampaign(last)
		coord.End()
		news = append(news, newD.Seconds())
		runs = append(runs, runD.Seconds())
	}
	passWall := rec.Now() - passStart
	rc.profile.stop()

	res := last.res
	cs := res.Cache
	L := out.layers
	L["ota.sig_lookups"] = float64(cs.SigLookups)
	L["ota.sig_verifies"] = float64(cs.SigVerifies)
	L["ota.sig_hit_ratio"] = 1 - float64(cs.SigVerifies)/float64(cs.SigLookups)
	L["ota.attest_hit_ratio"] = 1 - float64(cs.AttestBuilds)/float64(cs.AttestLookups)
	L["campaign.new_s"] = median(news)
	L["campaign.run_s"] = median(runs)
	L["campaign.waves"] = float64(len(res.Waves))
	L["campaign.rotations"] = float64(res.Rotations)
	L["campaign.rotate_failed"] = float64(len(res.RotateFailed))
	L["obs.metrics_per_vehicle"] = float64(len(res.Registry.Snapshot()))
	out.finishTrace(rc, rec, rec.Layers(), passWall, untracedWall)
	return out, nil
}
