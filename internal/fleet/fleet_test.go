package fleet

import (
	"testing"

	"autosec/internal/she"
)

var master = [16]byte{9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 1, 2, 3, 4, 5, 6}

func TestSharedKeyFullFleetCompromise(t *testing.T) {
	f := New(100, 4, SharedKey, master, 1)
	res := f.AssessCompromise(0)
	if res.Compromised != 100 {
		t.Fatalf("shared-key compromise=%d, want 100", res.Compromised)
	}
	if res.Fraction() != 1 {
		t.Fatalf("fraction=%v", res.Fraction())
	}
}

func TestPerModelCompromiseLimitedToModel(t *testing.T) {
	f := New(100, 4, PerModel, master, 1)
	res := f.AssessCompromise(0) // victim drives model 0
	// 100 vehicles over 4 models -> 25 per model.
	if res.Compromised != 25 {
		t.Fatalf("per-model compromise=%d, want 25", res.Compromised)
	}
	// Every compromised vehicle shares the victim's model.
	stolen := f.Vehicles[0].MasterKey()
	for _, v := range f.Vehicles {
		if v.MasterKey() == stolen && v.Model != res.AttackedModel {
			t.Fatal("key shared across models")
		}
	}
}

func TestPerDeviceCompromiseOnlyVictim(t *testing.T) {
	f := New(100, 4, PerDevice, master, 1)
	res := f.AssessCompromise(7)
	if res.Compromised != 1 {
		t.Fatalf("per-device compromise=%d, want 1", res.Compromised)
	}
	if res.AttackedVIN != "VIN-000008" {
		t.Fatalf("victim VIN %s", res.AttackedVIN)
	}
}

func TestPerDeviceKeysDistinct(t *testing.T) {
	f := New(50, 1, PerDevice, master, 1)
	seen := make(map[[16]byte]bool)
	for _, v := range f.Vehicles {
		k := v.MasterKey()
		if seen[k] {
			t.Fatal("duplicate per-device key")
		}
		seen[k] = true
	}
}

func TestCompromisedVehicleAcceptsEvilKey(t *testing.T) {
	// Double-check the compromise is real: after the campaign the evil key
	// actually works in the victim's Key1 slot.
	f := New(3, 1, SharedKey, master, 1)
	res := f.AssessCompromise(1)
	if res.Compromised != 3 {
		t.Fatalf("compromise=%d", res.Compromised)
	}
	valid, flags, _ := f.Vehicles[2].Engine.KeyState(she.Key1)
	if !valid || !flags.KeyUsage {
		t.Fatal("evil key not installed on a fleet peer")
	}
}

func TestPolicyString(t *testing.T) {
	if SharedKey.String() != "shared-key" || PerModel.String() != "per-model" || PerDevice.String() != "per-device" {
		t.Fatal("policy names wrong")
	}
}

func TestModelsFloor(t *testing.T) {
	f := New(10, 0, PerModel, master, 1)
	for _, v := range f.Vehicles {
		if v.Model != 0 {
			t.Fatal("model index with zero models requested")
		}
	}
}

func TestFractionEmptyFleet(t *testing.T) {
	r := CompromiseResult{}
	if r.Fraction() != 0 {
		t.Fatal("empty fleet fraction not 0")
	}
}

// TestNewParInvariance provisions the same fleet under every policy at
// 1, 2 and 8 workers: every vehicle must have the same VIN, model, UID,
// server-side key and MASTER_ECU_KEY slot state at every worker count.
func TestNewParInvariance(t *testing.T) {
	type vehicleState struct {
		vin     string
		model   int
		uid     she.UID
		key     [16]byte
		valid   bool
		flags   she.Flags
		counter uint32
	}
	provision := func(policy Policy, workers int) []vehicleState {
		f := New(301, 4, policy, master, workers)
		var out []vehicleState
		for _, v := range f.Vehicles {
			valid, flags, counter := v.Engine.KeyState(she.MasterECUKey)
			out = append(out, vehicleState{v.VIN, v.Model, v.Engine.UID(), v.MasterKey(), valid, flags, counter})
		}
		return out
	}
	for _, policy := range []Policy{SharedKey, PerModel, PerDevice} {
		ref := provision(policy, 1)
		if len(ref) != 301 || ref[300].vin != "VIN-000301" || ref[300].model != 0 || !ref[300].valid {
			t.Fatalf("%v: unexpected 1-worker fleet tail %+v", policy, ref[len(ref)-1])
		}
		for _, workers := range []int{2, 8} {
			got := provision(policy, workers)
			for i := range ref {
				if got[i] != ref[i] {
					t.Fatalf("%v, %d workers: vehicle %d is %+v, 1 worker %+v", policy, workers, i, got[i], ref[i])
				}
			}
		}
	}
}
