package fleet

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"autosec/internal/core"
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
		if _, _, err := DriveWaveObs(context.Background(), d, ObsOptions{}, w, func(idx int, v *core.Vehicle) (int, error) {
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
			part, _, err := DriveWaveObs(context.Background(), dw, ObsOptions{}, w, driveScenario)
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

// TestDriveWaveObsRegistryParInvariance: a wave's merged registry holds
// exactly its own vehicles' instruments (core.Vehicle.Instrument), folded
// in vehicle-index order at the wave barrier, so its Prometheus
// exposition is byte-identical at any worker count.
func TestDriveWaveObsRegistryParInvariance(t *testing.T) {
	const n = 60
	d := Driver{Cfg: obsTestConfig("WAVE-O", 23), N: n}
	w := Wave{Lo: 12, Hi: 48}
	run := func(workers int) []byte {
		dw := d
		dw.Workers = workers
		out, res, err := DriveWaveObs(context.Background(), dw, ObsOptions{Metrics: true}, w, driveScenario)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		// The kernel/steps probe sums the wave's vehicles and no others.
		var want int64
		for _, r := range out {
			var idx, steps int64
			if _, err := fmt.Sscanf(r, "idx=%d steps=%d", &idx, &steps); err != nil {
				t.Fatalf("result %q: %v", r, err)
			}
			want += steps
		}
		var got float64
		for _, m := range res.Registry.Snapshot() {
			if m.Key == "kernel/steps" {
				got = m.Value
			}
		}
		if int64(got) != want || want == 0 {
			t.Fatalf("workers=%d: kernel/steps = %v, want the wave's %d", workers, got, want)
		}
		var b bytes.Buffer
		if err := res.Registry.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	p1 := run(1)
	if p8 := run(8); !bytes.Equal(p1, p8) {
		t.Fatalf("wave registry exposition differs by worker count:\n--- par=1\n%s--- par=8\n%s", p1, p8)
	}
}
