package fleet

import (
	"reflect"
	"testing"

	"autosec/internal/she"
)

// hijack rotates v's MASTER_ECU_KEY to a key the OEM does not know, as an
// attacker holding the current key does (campaign.hijack).
func hijack(t *testing.T, v *Vehicle) {
	t.Helper()
	var evil [16]byte
	copy(evil[:], "attacker-owned!!")
	_, _, counter := v.Engine.KeyState(she.MasterECUKey)
	req, err := she.BuildUpdate(v.Engine.UID(), she.MasterECUKey, she.MasterECUKey,
		v.MasterKey(), evil, counter+1, she.Flags{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.Engine.LoadKey(req); err != nil {
		t.Fatal(err)
	}
}

func TestRotateKeysClosesCompromise(t *testing.T) {
	f := New(50, 2, SharedKey, master, 1)
	// Attacker extracts the shared key from vehicle 0.
	stolen := f.Vehicles[0].MasterKey()
	if res := f.AssessCompromise(0); res.Compromised != 50 {
		t.Fatalf("precondition: compromise=%d", res.Compromised)
	}

	// Recovery: rotate the whole fleet to a new master (per-device this
	// time — the compromise motivates the policy change too).
	var newMaster [16]byte
	copy(newMaster[:], "rotated-master-1")
	rotated, failed := f.RotateKeys(newMaster, 0)
	if rotated != 50 || len(failed) != 0 {
		t.Fatalf("rotated=%d failed=%v", rotated, failed)
	}

	// The stolen key no longer authorizes key loads anywhere: rebuild the
	// attack with the old key against the rotated fleet.
	compromised := 0
	for _, v := range f.Vehicles {
		if v.MasterKey() == stolen {
			compromised++
		}
	}
	if compromised != 0 {
		t.Fatalf("%d vehicles still on the stolen key", compromised)
	}
	// And a fresh assessment with the new victim key works as expected
	// (shared policy still shares the new key).
	if res := f.AssessCompromise(0); res.Compromised != 50 {
		t.Fatalf("post-rotation self-check: %d", res.Compromised)
	}
}

func TestRotateKeysIsRepeatable(t *testing.T) {
	f := New(10, 1, PerDevice, master, 1)
	var m2, m3 [16]byte
	copy(m2[:], "second-master-xx")
	copy(m3[:], "third-master-xxx")
	if n, failed := f.RotateKeys(m2, 0); n != 10 || len(failed) != 0 {
		t.Fatalf("first rotation: %d %v", n, failed)
	}
	if n, failed := f.RotateKeys(m3, 0); n != 10 || len(failed) != 0 {
		t.Fatalf("second rotation: %d %v", n, failed)
	}
	// Keys distinct per device after rotation.
	seen := make(map[[16]byte]bool)
	for _, v := range f.Vehicles {
		if seen[v.MasterKey()] {
			t.Fatal("duplicate key after rotation")
		}
		seen[v.MasterKey()] = true
	}
}

func TestRotateKeysFailsForHijackedVehicle(t *testing.T) {
	f := New(5, 1, SharedKey, master, 1)
	// The attacker got there first on vehicle 3: they rotated its master
	// key to one the OEM does not know.
	hijacked := f.Vehicles[3]
	hijack(t, hijacked)

	var newMaster [16]byte
	copy(newMaster[:], "oem-recovery-key")
	rotated, failed := f.RotateKeys(newMaster, 0)
	if rotated != 4 {
		t.Fatalf("rotated=%d", rotated)
	}
	if len(failed) != 1 || failed[0] != hijacked.VIN {
		t.Fatalf("failed=%v", failed)
	}
}

// TestRotateKeysParInvariance rotates one fleet, a few of whose vehicles
// were hijacked first, at 1, 2 and 8 workers: every run must rotate the
// same vehicles, list the same failed VINs in slice order, and leave
// every vehicle with the same server-side key and MASTER_ECU_KEY slot
// state.
func TestRotateKeysParInvariance(t *testing.T) {
	const n = 300
	hijacked := []int{3, 64, 65, 150, 299}
	type slotState struct {
		key     [16]byte
		valid   bool
		flags   she.Flags
		counter uint32
	}
	run := func(workers int) []slotState {
		f := New(n, 4, PerDevice, master, 1)
		for _, i := range hijacked {
			hijack(t, f.Vehicles[i])
		}
		var newMaster [16]byte
		copy(newMaster[:], "par-invariance-1")
		rotated, failed := f.RotateKeys(newMaster, workers)
		var wantFailed []string
		for _, i := range hijacked {
			wantFailed = append(wantFailed, f.Vehicles[i].VIN)
		}
		if rotated != n-len(hijacked) || !reflect.DeepEqual(failed, wantFailed) {
			t.Fatalf("%d workers: rotated=%d failed=%v, want %d and %v", workers, rotated, failed, n-len(hijacked), wantFailed)
		}
		var slots []slotState
		for _, v := range f.Vehicles {
			valid, flags, counter := v.Engine.KeyState(she.MasterECUKey)
			slots = append(slots, slotState{v.MasterKey(), valid, flags, counter})
		}
		return slots
	}
	ref := run(1)
	for _, workers := range []int{2, 8} {
		got := run(workers)
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("%d workers: vehicle %d ends %+v, 1 worker %+v", workers, i, got[i], ref[i])
			}
		}
	}
}

// TestRotateKeysAllocs pins a warm rotation's allocations per vehicle at
// 2: the update request and the confirmation the SHE exchange returns.
// The 10 AES key schedules a rotated per-device vehicle expands (pinned
// in internal/she) live on the stack. It takes the difference between
// rotations of 600 and 300 vehicles, so the call's fixed cost (its
// verdict slice and worker goroutine) cancels out.
func TestRotateKeysAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	rotate := func(n int) float64 {
		f := New(n, 4, PerDevice, master, 1)
		var newMaster [16]byte
		copy(newMaster[:], "allocs-master-01")
		f.RotateKeys(newMaster, 1)
		return testing.AllocsPerRun(5, func() {
			if rotated, failed := f.RotateKeys(newMaster, 1); rotated != n {
				t.Fatalf("rotated %d of %d, failed %v", rotated, n, failed)
			}
		})
	}
	perVehicle := (rotate(600) - rotate(300)) / 300
	const limit = 2.02 // 0.02: a few allocations vary with scheduling
	t.Logf("%.3f allocs per rotated vehicle (limit %.2f)", perVehicle, limit)
	if perVehicle > limit {
		t.Fatalf("%.2f allocs per rotated vehicle, want <= %.2f", perVehicle, limit)
	}
}
