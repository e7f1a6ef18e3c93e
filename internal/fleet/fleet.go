// Package fleet models bulk production and key provisioning — the paper's
// observation that "many electronic components are produced en masse with
// the same configuration of keys", so that "one compromised ECU can lead
// [to] potentially severe security compromise of a whole class".
//
// A fleet is a set of vehicles, each with a SHE engine, provisioned under
// one of three policies: a single shared master key, one key per model
// line, or a unique key per device (derived from a production master and
// the device UID, as real key-management systems do). Experiment E3
// extracts one vehicle's key by side channel and counts how much of the
// fleet an attacker can then push malicious key loads to.
package fleet

import (
	"encoding/binary"
	"fmt"

	"autosec/internal/she"
)

// Policy selects the key provisioning strategy.
type Policy int

// Provisioning policies.
const (
	// SharedKey gives every vehicle the same MASTER_ECU_KEY — the cheap
	// default the paper warns about.
	SharedKey Policy = iota
	// PerModel shares a key within a model line only.
	PerModel
	// PerDevice derives a unique key per vehicle from the production
	// master and the device UID.
	PerDevice
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case SharedKey:
		return "shared-key"
	case PerModel:
		return "per-model"
	case PerDevice:
		return "per-device"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Vehicle is one fleet member.
type Vehicle struct {
	VIN    string
	Model  int
	Engine *she.Engine
	// masterKey is what the OEM key server knows for this vehicle; kept
	// here so tests and experiments can model the attacker extracting it
	// from the *device* via side channel.
	masterKey [16]byte
}

// MasterKey exposes the provisioned key — the quantity the side-channel
// attack recovers. Scenario code calls this only on the one physically
// attacked vehicle.
func (v *Vehicle) MasterKey() [16]byte { return v.masterKey }

// Fleet is the vehicle population.
type Fleet struct {
	Policy   Policy
	Vehicles []*Vehicle
}

// deriveKey implements the per-policy key schedule from a production
// master secret.
func deriveKey(master [16]byte, policy Policy, model int, uid she.UID) [16]byte {
	switch policy {
	case SharedKey:
		return master
	case PerModel:
		var c [16]byte
		binary.BigEndian.PutUint64(c[:8], uint64(model))
		return she.KDF(master, c)
	default: // PerDevice
		var c [16]byte
		copy(c[:15], uid[:])
		c[15] = byte(model)
		return she.KDF(master, c)
	}
}

// New provisions a fleet of n vehicles across the given number of model
// lines under the policy, from the production master secret. Vehicles
// are built over ForShards' contiguous index shards on workers
// goroutines (<= 0 means GOMAXPROCS), each at its own index, and every
// vehicle is a function of its index alone, so the fleet is the same at
// any worker count.
func New(n, models int, policy Policy, master [16]byte, workers int) *Fleet {
	if models < 1 {
		models = 1
	}
	f := &Fleet{Policy: policy, Vehicles: make([]*Vehicle, max(n, 0))}
	ForShards(len(f.Vehicles), workers, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			var uid she.UID
			binary.BigEndian.PutUint64(uid[:8], uint64(i+1))
			model := i % models
			key := deriveKey(master, policy, model, uid)
			e := she.NewEngine(uid)
			e.ProvisionMasterKey(key)
			f.Vehicles[i] = &Vehicle{
				VIN:       fmt.Sprintf("VIN-%06d", i+1),
				Model:     model,
				Engine:    e,
				masterKey: key,
			}
		}
	})
	return f
}

// CompromiseResult summarizes an extraction campaign.
type CompromiseResult struct {
	Policy        Policy
	FleetSize     int
	Compromised   int
	AttackedVIN   string
	AttackedModel int
}

// Fraction reports the compromised share of the fleet.
func (r CompromiseResult) Fraction() float64 {
	if r.FleetSize == 0 {
		return 0
	}
	return float64(r.Compromised) / float64(r.FleetSize)
}

// RotateKeys is the recovery action after a compromise: the OEM key
// server re-provisions every vehicle's MASTER_ECU_KEY from a new
// production master, using the SHE memory-update protocol authorized by
// each vehicle's *current* key (self-rotation). Vehicles whose current
// key the server no longer knows — e.g. already hijacked by the attacker
// — fail the update and are returned for out-of-band recovery.
//
// The exchanges are sharded over workers goroutines (<= 0 means
// GOMAXPROCS) by ForShards. Each vehicle's verdict is kept at its index,
// so failed lists VINs in slice order at any worker count.
func (f *Fleet) RotateKeys(newMaster [16]byte, workers int) (rotated int, failed []string) {
	n := len(f.Vehicles)
	ok := make([]bool, n)
	ForShards(n, workers, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			ok[i] = f.Vehicles[i].rotate(f.Policy, newMaster)
		}
	})
	for i, v := range f.Vehicles {
		if ok[i] {
			rotated++
		} else {
			failed = append(failed, v.VIN)
		}
	}
	return rotated, failed
}

// rotate moves v's MASTER_ECU_KEY to its key under newMaster, authorized
// by the key the server holds for it, and reports whether the device
// accepted the update.
func (v *Vehicle) rotate(policy Policy, newMaster [16]byte) bool {
	newKey := deriveKey(newMaster, policy, v.Model, v.Engine.UID())
	_, _, counter := v.Engine.KeyState(she.MasterECUKey)
	req, err := she.BuildUpdate(v.Engine.UID(), she.MasterECUKey, she.MasterECUKey,
		v.masterKey, newKey, counter+1, she.Flags{})
	if err != nil {
		return false
	}
	if _, err := v.Engine.LoadKey(req); err != nil {
		return false
	}
	v.masterKey = newKey
	return true
}

// AssessCompromise models the E3 chain: the attacker has physically
// extracted the master key of Vehicles[victim] and now attempts an
// authenticated malicious key load (SHE M1–M3 with a fresh counter)
// against every vehicle in the fleet. A vehicle counts as compromised if
// the load is accepted.
func (f *Fleet) AssessCompromise(victim int) CompromiseResult {
	stolen := f.Vehicles[victim].MasterKey()
	res := CompromiseResult{
		Policy:        f.Policy,
		FleetSize:     len(f.Vehicles),
		AttackedVIN:   f.Vehicles[victim].VIN,
		AttackedModel: f.Vehicles[victim].Model,
	}
	var evil [16]byte
	for i := range evil {
		evil[i] = 0xE0 | byte(i)
	}
	for _, v := range f.Vehicles {
		_, _, counter := v.Engine.KeyState(she.Key1)
		req, err := she.BuildUpdate(v.Engine.UID(), she.Key1, she.MasterECUKey, stolen, evil, counter+1, she.Flags{KeyUsage: true})
		if err != nil {
			continue
		}
		if _, err := v.Engine.LoadKey(req); err == nil {
			res.Compromised++
		}
	}
	return res
}
