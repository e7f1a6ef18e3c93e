package campaign

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"autosec/internal/obs"
	"autosec/internal/ota"
	"autosec/internal/she"
)

func baseConfig() Config {
	return Config{
		Fleet:  400,
		Models: 4,
		Seed:   7,
		Strategy: Strategy{
			Name: "conservative", Canary: 16, Growth: 4, AbortThreshold: 0.5,
		},
		RotateAtWave: -1,
	}
}

// otaCampaignConfig is the benchmark's ota-campaign workload: 2,000
// vehicles over 4 models, a two-key compromise from wave 1 answered by
// rotation.
func otaCampaignConfig(workers int) Config {
	return Config{
		Fleet:   2000,
		Models:  4,
		Workers: workers,
		Seed:    1,
		Strategy: Strategy{Name: "conservative", Canary: 16, Growth: 4,
			AbortThreshold: 0.5},
		Attack:        AttackPlan{Kind: AttackTwoKey, FromWave: 1},
		RotateAtWave:  -1,
		RotateOnBlast: true,
	}
}

func run(t *testing.T, cfg Config) *Result {
	t.Helper()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestCampaignHappyPath(t *testing.T) {
	cfg := baseConfig()
	res := run(t, cfg)
	if res.Aborted || res.Rotations != 0 {
		t.Fatalf("clean campaign aborted/rotated: %+v", res)
	}
	if got := res.Outcomes[OutcomeUpdated]; got != cfg.Fleet {
		t.Fatalf("updated %d of %d:\n%s", got, cfg.Fleet, res.Render())
	}
	// Waves partition the fleet: canary 16, rings x4.
	if len(res.Waves) == 0 || res.Waves[0].Wave.Size() != 16 {
		t.Fatalf("wave plan: %+v", res.Waves)
	}
	// The backend published 3 generations x 4 models = 12 bundles, 24
	// signatures; epoch never rotated, so exactly 24 cold verifications
	// serve the whole fleet (provisioning + waves).
	if res.Cache.SigVerifies != 24 {
		t.Fatalf("cold signature verifications: %d\n%s", res.Cache.SigVerifies, res.Render())
	}
	if res.Cache.AttestBuilds != 12 {
		t.Fatalf("attestation builds: %d", res.Cache.AttestBuilds)
	}
	// Fleet-scale lookups dwarf the cold work: provisioning (fleet +
	// non-late-joiners) plus two check-ins per vehicle.
	if res.Cache.SigLookups < int64(4*cfg.Fleet) {
		t.Fatalf("sig lookups: %d", res.Cache.SigLookups)
	}
}

func TestCampaignVersionSkewConverges(t *testing.T) {
	cfg := baseConfig()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	late := 0
	for _, st := range e.States() {
		if st.LateJoiner {
			late++
		}
	}
	if late == 0 || late == cfg.Fleet {
		t.Fatalf("late joiner population: %d", late)
	}
	if _, err := e.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Every vehicle — skewed or not — ends on the campaign firmware.
	for _, st := range e.States() {
		ecu, ok := st.Client.ECU(hwid(st.Model))
		if !ok || ecu.InstalledVersion != versionCurrent {
			t.Fatalf("vehicle %d (late=%v) at version %d", st.Idx, st.LateJoiner, ecu.InstalledVersion)
		}
	}
}

func TestCampaignRollbackBlastsLateJoiners(t *testing.T) {
	cfg := baseConfig()
	cfg.Strategy.AbortThreshold = 0 // measure the full sweep
	cfg.Attack = AttackPlan{Kind: AttackRollback, FromWave: 1}
	res := run(t, cfg)
	// Wave 0 is clean; attacked waves freeze the baseline population and
	// roll the late joiners back to superseded firmware.
	if res.Waves[0].StaleInstalls != 0 || res.Waves[0].Frozen != 0 {
		t.Fatalf("clean canary polluted: %+v", res.Waves[0])
	}
	stale, frozen := 0, 0
	for _, w := range res.Waves[1:] {
		stale += w.StaleInstalls
		frozen += w.Frozen
	}
	if stale == 0 || frozen == 0 {
		t.Fatalf("rollback sweep: stale=%d frozen=%d\n%s", stale, frozen, res.Render())
	}
	if res.Outcomes[OutcomeStaleInstall] != stale || res.Outcomes[OutcomeFrozen] != frozen {
		t.Fatalf("outcome tallies disagree with waves:\n%s", res.Render())
	}
	// Blast radius is exactly the attacked late joiners: stale installs
	// land on vehicles that missed the baseline, nobody else installs
	// anything stale.
	lateAttacked := 0
	for idx := res.Waves[1].Wave.Lo; idx < cfg.Fleet; idx++ {
		if idx%7 == 3 {
			lateAttacked++
		}
	}
	if stale != lateAttacked {
		t.Fatalf("stale installs %d, want the %d attacked late joiners", stale, lateAttacked)
	}
}

func TestCampaignFreezeSilentThenDetected(t *testing.T) {
	cfg := baseConfig()
	cfg.Strategy.AbortThreshold = 0
	cfg.Attack = AttackPlan{Kind: AttackFreeze, FromWave: 1}
	res := run(t, cfg)
	attackedPop := 0
	for _, w := range res.Waves[1:] {
		attackedPop += w.Wave.Size()
		if w.EvilInstalls != 0 || w.StaleInstalls != 0 {
			t.Fatalf("freeze installed something: %+v", w)
		}
	}
	// Every attacked vehicle is frozen and — because the replayed
	// metadata expires inside the wave — detected.
	if res.Outcomes[OutcomeFrozen] != attackedPop {
		t.Fatalf("frozen %d of %d attacked:\n%s", res.Outcomes[OutcomeFrozen], attackedPop, res.Render())
	}
	// Freeze is pure withholding: blast fraction 0 everywhere, so the
	// abort rule never sees it — the detection signal is the expiry.
	if res.Aborted {
		t.Fatal("freeze must not trip the blast-abort rule")
	}
}

func TestCampaignImageKeyContained(t *testing.T) {
	cfg := baseConfig()
	cfg.Attack = AttackPlan{Kind: AttackImageKey, FromWave: 0}
	res := run(t, cfg)
	// A single stolen key installs nothing: the two repositories must
	// agree. Every vehicle rejects the forgery and recovers on the honest
	// re-check.
	if res.Outcomes[OutcomeEvilInstall] != 0 {
		t.Fatalf("single-key forgery installed:\n%s", res.Render())
	}
	if res.Outcomes[OutcomeUpdated] != cfg.Fleet {
		t.Fatalf("fleet did not recover:\n%s", res.Render())
	}
	rejected := 0
	for _, w := range res.Waves {
		rejected += w.AttackRejected
	}
	if rejected != cfg.Fleet {
		t.Fatalf("rejections %d of %d", rejected, cfg.Fleet)
	}
}

func TestCampaignTwoKeyAbortBoundsBlast(t *testing.T) {
	cfg := baseConfig()
	cfg.Attack = AttackPlan{Kind: AttackTwoKey, FromWave: 1}
	res := run(t, cfg)
	// Wave 1 (size 64) is fully compromised; the abort threshold stops
	// the campaign there, so the blast radius is one ring, not the fleet.
	if !res.Aborted || res.AbortWave != 1 {
		t.Fatalf("expected abort at wave 1:\n%s", res.Render())
	}
	if got := res.Outcomes[OutcomeEvilInstall]; got != res.Waves[1].Wave.Size() {
		t.Fatalf("blast radius %d, want %d:\n%s", got, res.Waves[1].Wave.Size(), res.Render())
	}
	if res.Outcomes[OutcomePending] == 0 {
		t.Fatal("abort should leave the undriven fleet pending")
	}
}

func TestCampaignTwoKeyRotationRecovers(t *testing.T) {
	cfg := baseConfig()
	cfg.Attack = AttackPlan{Kind: AttackTwoKey, FromWave: 1}
	cfg.RotateOnBlast = true
	res := run(t, cfg)
	if res.Aborted || res.Rotations != 1 {
		t.Fatalf("expected one rotation, no abort:\n%s", res.Render())
	}
	blast := res.Waves[1].Wave.Size()
	// The compromised ring was hijacked, failed rotation and is the
	// entire failed set; every wave after the rotation installs cleanly
	// under the new epoch because the stolen keys sign a dead trust root.
	if len(res.RotateFailed) != blast || res.Outcomes[OutcomeFailed] != blast {
		t.Fatalf("failed set %d/%d, want %d:\n%s",
			len(res.RotateFailed), res.Outcomes[OutcomeFailed], blast, res.Render())
	}
	for _, w := range res.Waves[2:] {
		if w.EvilInstalls != 0 || w.Updated != w.Wave.Size() {
			t.Fatalf("post-rotation wave compromised: %+v", w)
		}
	}
	if res.Outcomes[OutcomeEvilInstall] != 0 {
		t.Fatalf("evil installs should have been reclassified as failed:\n%s", res.Render())
	}
}

// TestCampaignRotationBetweenCanaryAndRing is the RotateKeys-vs-campaign
// race: the canary wave is compromised end to end (two stolen keys), the
// OEM rotates the trust epoch between canary and ring. Hijacked canary
// vehicles must land in failed deterministically (fleet slice order),
// and the post-rotation waves must verify under the new master without
// re-verifying any completed wave's artifacts.
func TestCampaignRotationBetweenCanaryAndRing(t *testing.T) {
	cfg := baseConfig()
	cfg.Strategy.AbortThreshold = 0
	cfg.Attack = AttackPlan{Kind: AttackTwoKey, FromWave: 0}
	cfg.RotateAtWave = 1 // between canary and ring

	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	preWave := e.Cache().Stats()
	res, err := e.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	canary := res.Waves[0].Wave.Size()
	if res.Waves[0].EvilInstalls != canary {
		t.Fatalf("canary should be fully compromised: %+v", res.Waves[0])
	}
	if !res.Waves[1].Rotated {
		t.Fatalf("rotation did not land between canary and ring:\n%s", res.Render())
	}
	// Hijacked vehicles fail rotation in fleet slice order: the canary is
	// indices [0,16), so the failed VINs are exactly VIN-000001..VIN-000016
	// in order.
	if len(res.RotateFailed) != canary {
		t.Fatalf("rotate failed %d, want %d", len(res.RotateFailed), canary)
	}
	for i, vin := range res.RotateFailed {
		if want := e.States()[i].VIN; vin != want {
			t.Fatalf("failed[%d] = %s, want %s (slice order)", i, vin, want)
		}
		if e.States()[i].Outcome != OutcomeFailed {
			t.Fatalf("hijacked vehicle %d outcome %v", i, e.States()[i].Outcome)
		}
	}
	// Post-rotation waves all verify under the new master.
	for _, w := range res.Waves[1:] {
		if w.Updated != w.Wave.Size() {
			t.Fatalf("post-rotation wave not clean: %+v", w)
		}
	}
	// "Without re-verifying completed waves": the rotation adds exactly
	// one republished generation plus one re-check of the forged director
	// metadata under the new key (the cache key embeds the key
	// fingerprint, so the old proof cannot be reused) — bounded by
	// published artifacts, not by fleet or wave size. Epoch-0 artifacts:
	// 3 gens + 1 forged bundle set (2 sigs per model each); epoch 1 adds
	// 1 gen plus the forged director's single failed re-verification per
	// model.
	wantVerifies := int64(2*cfg.Models*5 + cfg.Models)
	if res.Cache.SigVerifies != wantVerifies {
		t.Fatalf("cold verifies %d, want %d (artifact-bounded, not fleet-bounded)",
			res.Cache.SigVerifies, wantVerifies)
	}
	if preWave.SigVerifies >= res.Cache.SigVerifies {
		t.Fatal("waves performed no verification at all?")
	}
}

// TestCampaignParInvariance is the campaign determinism gate: the full
// report — waves, outcomes, cache stats and the merged metrics registry
// — must be byte-identical at 1 and 8 workers. CI runs this under -race.
func TestCampaignParInvariance(t *testing.T) {
	render := func(workers int, attack AttackKind) string {
		cfg := baseConfig()
		cfg.Workers = workers
		cfg.Attack = AttackPlan{Kind: attack, FromWave: 1}
		cfg.RotateOnBlast = true
		res := run(t, cfg)
		var sb strings.Builder
		sb.WriteString(res.Render())
		for _, m := range res.Registry.Snapshot() {
			sb.WriteString(m.Key + "=" + obs.FormatValue(m.Value) + "\n")
		}
		return sb.String()
	}
	for _, attack := range []AttackKind{AttackNone, AttackRollback, AttackTwoKey} {
		s1 := render(1, attack)
		s8 := render(8, attack)
		if s1 != s8 {
			t.Fatalf("attack %v: campaign diverges by worker count:\n--- par=1\n%s--- par=8\n%s", attack, s1, s8)
		}
	}
}

// TestCampaignMemoizedSteadyState: after its install, a vehicle's
// re-poll is the memoized no-update path — the client-side counter that
// makes the fleet's steady-state load visible.
func TestCampaignMemoizedSteadyState(t *testing.T) {
	cfg := baseConfig()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, st := range e.States()[:20] {
		if st.Client.UpToDate.Value == 0 {
			t.Fatalf("vehicle %d never exercised the no-update path", st.Idx)
		}
	}
}

// TestCampaignRegistryMatchesWaveReports pins the campaign registry to
// the wave reports: under every E22 attack row and both E22 strategies,
// each campaign/* outcome counter equals the matching WaveReport field
// summed over the driven waves, and campaign/checkins equals the
// check-ins the vehicles' verifiers actually answered.
func TestCampaignRegistryMatchesWaveReports(t *testing.T) {
	strategies := []Strategy{
		{Name: "conservative", Canary: 16, Growth: 4, AbortThreshold: 0.5},
		{Name: "aggressive", Canary: 256, Growth: 8, AbortThreshold: 0},
	}
	attacks := []struct {
		name   string
		kind   AttackKind
		rotate bool
	}{
		{"none", AttackNone, false},
		{"freeze", AttackFreeze, false},
		{"rollback", AttackRollback, false},
		{"imagekey", AttackImageKey, false},
		{"twokey", AttackTwoKey, false},
		{"twokey+rotate", AttackTwoKey, true},
	}
	for _, strat := range strategies {
		for _, a := range attacks {
			t.Run(strat.Name+"/"+a.name, func(t *testing.T) {
				cfg := baseConfig()
				cfg.Strategy = strat
				cfg.Attack = AttackPlan{Kind: a.kind, FromWave: 1}
				cfg.RotateOnBlast = a.rotate
				e, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				// Provisioning applies the factory generation everywhere
				// and the baseline to all but the late joiners.
				var provisioned int64
				for _, st := range e.States() {
					provisioned += installsBefore(st)
				}
				res, err := e.Run(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				var want WaveReport
				for _, w := range res.Waves {
					want.Updated += w.Updated
					want.StaleInstalls += w.StaleInstalls
					want.EvilInstalls += w.EvilInstalls
					want.Frozen += w.Frozen
					want.Blocked += w.Blocked
				}
				var answered int64
				for _, st := range e.States() {
					c := st.Client
					answered += c.Installed.Value + c.Rejected.Value + c.UpToDate.Value
				}
				got := map[string]float64{}
				for _, m := range res.Registry.Snapshot() {
					got[m.Key] = m.Value
				}
				for _, c := range []struct {
					key  string
					want int64
				}{
					{"campaign/updated", int64(want.Updated)},
					{"campaign/stale_install", int64(want.StaleInstalls)},
					{"campaign/evil_install", int64(want.EvilInstalls)},
					{"campaign/frozen_detected", int64(want.Frozen)},
					{"campaign/blocked", int64(want.Blocked)},
					{"campaign/checkins", answered - provisioned},
				} {
					v, ok := got[c.key]
					if !ok {
						t.Errorf("%s missing from the campaign registry", c.key)
						continue
					}
					if int64(v) != c.want {
						t.Errorf("%s = %d, want %d", c.key, int64(v), c.want)
					}
				}
			})
		}
	}
}

// TestClassifyMatchesSentinelsNotText pins that classify recognizes a
// freeze by the ErrExpiredMeta sentinel, not by error text: a rejection
// that quotes an attacker-chosen string containing "expired" after an
// up-to-date first check-in is a block, not a detected freeze.
func TestClassifyMatchesSentinelsNotText(t *testing.T) {
	for _, c := range []struct {
		name          string
		first, second error
		want          Outcome
	}{
		{"quoted vehicle ID", ota.ErrNoUpdate, fmt.Errorf("%w: %q", ota.ErrWrongVehicle, "expired-fleet"), OutcomeBlocked},
		{"quoted target name", ota.ErrNoUpdate, fmt.Errorf("%w: target %q", ota.ErrMixAndMatch, "expired/app-fw"), OutcomeBlocked},
		{"quoted hardware ID", ota.ErrNoUpdate, fmt.Errorf("%w: %q", ota.ErrWrongHW, "ecu-expired"), OutcomeBlocked},
		{"real expiry", ota.ErrNoUpdate, fmt.Errorf("%w: repo director", ota.ErrExpiredMeta), OutcomeFrozen},
		{"wrapped no-update", fmt.Errorf("poll: %w", ota.ErrNoUpdate), fmt.Errorf("%w: repo image", ota.ErrExpiredMeta), OutcomeFrozen},
		{"wrapped no-update is not a rejection", fmt.Errorf("poll: %w", ota.ErrNoUpdate), nil, OutcomeBlocked},
	} {
		if got := classify(c.first, c.second, false); got != c.want {
			t.Errorf("%s: classify = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestCampaignNewParInvariance provisions the ota-campaign workload at
// 1, 2 and 8 workers. After New every vehicle must have the same VIN,
// model, skew class, MASTER_ECU_KEY slot state, installed firmware and
// verifier counters, and the cache the same counts; after Run the report
// and the merged registry must be identical. CI runs this under -race.
func TestCampaignNewParInvariance(t *testing.T) {
	type vehicleState struct {
		vin                         string
		model                       int
		late                        bool
		valid                       bool
		flags                       she.Flags
		counter                     uint32
		installed                   uint64
		nInstalled, nRej, nUpToDate int64
	}
	type snapshot struct {
		vehicles []vehicleState
		cache    ota.CacheStats
		report   string
	}
	build := func(workers int) snapshot {
		e, err := New(otaCampaignConfig(workers))
		if err != nil {
			t.Fatal(err)
		}
		var s snapshot
		for i, st := range e.States() {
			valid, flags, counter := e.fleet.Vehicles[i].Engine.KeyState(she.MasterECUKey)
			ecu, ok := st.Client.ECU(hwid(st.Model))
			if !ok {
				t.Fatalf("%d workers: vehicle %d has no ECU %s", workers, i, hwid(st.Model))
			}
			c := st.Client
			s.vehicles = append(s.vehicles, vehicleState{st.VIN, st.Model, st.LateJoiner, valid, flags, counter,
				ecu.InstalledVersion, c.Installed.Value, c.Rejected.Value, c.UpToDate.Value})
		}
		s.cache = e.Cache().Stats()
		res, err := e.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		sb.WriteString(res.Render())
		for _, m := range res.Registry.Snapshot() {
			sb.WriteString(m.Key + "=" + obs.FormatValue(m.Value) + "\n")
		}
		s.report = sb.String()
		return s
	}
	ref := build(1)
	for _, workers := range []int{2, 8} {
		got := build(workers)
		for i := range ref.vehicles {
			if got.vehicles[i] != ref.vehicles[i] {
				t.Fatalf("%d workers: after New vehicle %d is %+v, 1 worker %+v", workers, i, got.vehicles[i], ref.vehicles[i])
			}
		}
		if !reflect.DeepEqual(got.cache, ref.cache) {
			t.Fatalf("%d workers: cache after New %+v, 1 worker %+v", workers, got.cache, ref.cache)
		}
		if got.report != ref.report {
			t.Fatalf("%d workers: campaign diverges:\n--- 1 worker\n%s--- %d workers\n%s", workers, ref.report, workers, got.report)
		}
	}
}

// TestProvisionReportsLowestIndexFailure pins New's provisioning error
// at every worker count, in both provisioning phases. With model 3's
// factory bundle and model 1's baseline bundle replaced by ones signed
// under other keys, vehicles 1 and 3 fail in the first phase, and the
// error is vehicle 1's. With only model 3's baseline bundle replaced,
// the first phase passes (vehicle 3 is a late joiner and never checks
// the baseline), and the error is vehicle 7's, the first failure of the
// second phase.
func TestProvisionReportsLowestIndexFailure(t *testing.T) {
	type bundleSwap struct{ gen, model int }
	for _, c := range []struct {
		swaps []bundleSwap
		want  string
	}{
		{[]bundleSwap{{GenFactory, 3}, {GenBaseline, 1}}, "campaign: baseline on vehicle 1: "},
		{[]bundleSwap{{GenBaseline, 3}}, "campaign: baseline on vehicle 7: "},
	} {
		for _, workers := range []int{1, 2, 8} {
			cfg := baseConfig()
			cfg.Workers = workers
			e, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			other, err := NewBackend(cfg.Models, cfg.Workers, StaleExpiry, CampaignExpiry)
			if err != nil {
				t.Fatal(err)
			}
			for _, sw := range c.swaps {
				e.backend.gens[sw.gen][sw.model] = other.Bundle(sw.gen, sw.model)
			}
			err = e.provisionAll()
			if !errors.Is(err, ota.ErrBadSignature) || !strings.HasPrefix(err.Error(), c.want) {
				t.Fatalf("%d workers, swapped %v: provisioning error %v, want %q", workers, c.swaps, err, c.want)
			}
		}
	}
}

// TestCampaignNewAllocs pins campaign.New at 6 allocations per
// provisioned vehicle on the ota-campaign workload at 2 workers; the AES
// key schedule of each vehicle's per-device key derivation lives on the
// stack. It takes the difference between builds of 2,000 and 1,000
// vehicles, so the build's fixed cost (signing, cold verifies,
// goroutines) cancels out.
func TestCampaignNewAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	build := func(fleet int) float64 {
		cfg := otaCampaignConfig(2)
		cfg.Fleet = fleet
		return testing.AllocsPerRun(5, func() {
			if _, err := New(cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
	perVehicle := (build(2000) - build(1000)) / 1000
	const limit = 6.02 // 0.02: a few allocations vary with scheduling
	t.Logf("%.3f allocs per provisioned vehicle (limit %.2f)", perVehicle, limit)
	if perVehicle > limit {
		t.Fatalf("%.3f allocs per provisioned vehicle, want <= %.2f", perVehicle, limit)
	}
}

// BenchmarkCampaignNew is provisioning's own layer number: campaign.New
// on the ota-campaign workload at 1 worker and at GOMAXPROCS.
func BenchmarkCampaignNew(b *testing.B) {
	counts := []int{1}
	if p := runtime.GOMAXPROCS(0); p > 1 {
		counts = append(counts, p)
	}
	for _, workers := range counts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := New(otaCampaignConfig(workers)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
