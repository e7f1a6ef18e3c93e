package fleet

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"autosec/internal/core"
	"autosec/internal/obs"
)

func TestStageWaves(t *testing.T) {
	got := StageWaves(1000, 10, 4)
	want := []Wave{{0, 10}, {10, 50}, {50, 210}, {210, 850}, {850, 1000}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("StageWaves(1000,10,4) = %v", got)
	}
	// The plan always partitions [0,n) exactly.
	for _, n := range []int{1, 7, 10, 97, 5000} {
		waves := StageWaves(n, 10, 4)
		lo := 0
		for _, w := range waves {
			if w.Lo != lo || w.Hi <= w.Lo {
				t.Fatalf("n=%d: bad partition %v", n, waves)
			}
			lo = w.Hi
		}
		if lo != n {
			t.Fatalf("n=%d: waves end at %d", n, lo)
		}
	}
	if StageWaves(0, 10, 4) != nil {
		t.Fatal("empty population should have no waves")
	}
}

func TestDriveWaveRangeValidation(t *testing.T) {
	d := Driver{Cfg: core.Config{VIN: "WAVE-V", Seed: 3}, N: 10, Workers: 2}
	for _, w := range []Wave{{-1, 5}, {5, 11}, {5, 5}, {7, 3}} {
		if _, _, err := DriveWaveObs(context.Background(), d, ObsOptions{}, w, func(idx int, v *core.Vehicle, _ *obs.Registry) (int, error) {
			return idx, nil
		}); err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Fatalf("wave %v: err=%v", w, err)
		}
	}
}

// TestDriveWaveEquivalence: driving the population as a staged wave
// sequence must visit byte-identical vehicles as one full drive — wave
// boundaries change when a vehicle runs, never what it does — and the
// result must be worker-count invariant. CI runs this under -race.
func TestDriveWaveEquivalence(t *testing.T) {
	const n = 96
	d := Driver{Cfg: core.Config{VIN: "WAVE-E", Seed: 17}, N: n, Workers: 1}
	full, _, err := DriveObs(context.Background(), d, ObsOptions{}, driveScenario)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 8} {
		dw := d
		dw.Workers = workers
		var waved []string
		for _, w := range StageWaves(n, 5, 3) {
			part, _, err := DriveWaveObs(context.Background(), dw, ObsOptions{}, w,
				func(idx int, v *core.Vehicle, _ *obs.Registry) (string, error) { return driveScenario(idx, v) })
			if err != nil {
				t.Fatalf("workers=%d wave %v: %v", workers, w, err)
			}
			waved = append(waved, part...)
		}
		if !reflect.DeepEqual(full, waved) {
			t.Fatalf("workers=%d: waved drive diverged from full drive", workers)
		}
	}
}

// TestDriveWaveObsRegistryParInvariance: scenario-level instruments
// registered through the fn reg parameter fold deterministically at the
// wave barrier — the merged snapshot is byte-identical at any worker
// count.
func TestDriveWaveObsRegistryParInvariance(t *testing.T) {
	const n = 60
	d := Driver{Cfg: core.Config{VIN: "WAVE-O", Seed: 23}, N: n}
	w := Wave{Lo: 12, Hi: 48}
	run := func(workers int) string {
		dw := d
		dw.Workers = workers
		_, res, err := DriveWaveObs(context.Background(), dw, ObsOptions{Metrics: true}, w,
			func(idx int, v *core.Vehicle, reg *obs.Registry) (struct{}, error) {
				if reg == nil {
					t.Fatal("fn must receive the live registry when Metrics is on")
				}
				reg.Counter("wave/visited").Inc()
				if idx%5 == 0 {
					reg.Counter("wave/fifth").Inc()
				}
				reg.Gauge("wave/idx_sum").Add(float64(idx))
				return struct{}{}, nil
			})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var sb strings.Builder
		for _, m := range res.Registry.Snapshot() {
			fmt.Fprintf(&sb, "%s=%s\n", m.Key, obs.FormatValue(m.Value))
		}
		return sb.String()
	}
	s1 := run(1)
	if !strings.Contains(s1, "wave/visited=36") {
		t.Fatalf("wave visited count wrong:\n%s", s1)
	}
	if s8 := run(8); s8 != s1 {
		t.Fatalf("wave registry snapshot differs by worker count:\n--- par=1\n%s--- par=8\n%s", s1, s8)
	}
}
