package ota

import (
	"crypto/ed25519"
	"testing"

	"autosec/internal/sim"
)

// fuzzPool is the fuzzed cache's trust keys and published metadata: two
// keys from fixed seeds, so the committed corpus means the same thing on
// every run, and three signed objects of two targets each, so every
// object can have its targets swapped.
type fuzzPool struct {
	pubs  [2]ed25519.PublicKey
	bases []*Metadata
}

func newFuzzPool() *fuzzPool {
	var p fuzzPool
	var privs [2]ed25519.PrivateKey
	for i := range privs {
		seed := make([]byte, ed25519.SeedSize)
		seed[0] = byte(i + 1)
		privs[i] = ed25519.NewKeyFromSeed(seed)
		p.pubs[i] = privs[i].Public().(ed25519.PublicKey)
	}
	brake := func(v uint64) Target { return MakeTarget("brake-fw", v, "brake-mcu-r2", []byte{byte(v), 'b'}) }
	adas := func(v uint64) Target { return MakeTarget("adas-fw", v, "adas-soc-r1", []byte{byte(v), 'a'}) }
	p.bases = []*Metadata{
		ForgeMetadata(privs[0], "director", "model-S", 1, []Target{brake(2), adas(2)}, sim.Hour),
		ForgeMetadata(privs[1], "image", "", 1, []Target{brake(2), adas(2)}, sim.Hour),
		ForgeMetadata(privs[0], "director", "VIN-7", 2, []Target{adas(3), brake(3)}, sim.Hour),
	}
	return &p
}

// deepCopy returns m with private Targets and Sig arrays.
func deepCopy(m *Metadata) *Metadata {
	c := *m
	c.Targets = append([]Target(nil), m.Targets...)
	c.Sig = append([]byte(nil), m.Sig...)
	return &c
}

// fuzzMutate changes one signed field of m in place; Sig and Targets
// are written through their backing arrays, which struct copies share.
func fuzzMutate(m *Metadata, arg byte) {
	pos := int(arg / 6)
	switch arg % 6 {
	case 0:
		m.Sig[pos%len(m.Sig)] ^= 0x80
	case 1:
		m.Version++
	case 2:
		m.Expires += sim.Second
	case 3:
		m.VehicleID += "x"
	case 4:
		m.Targets[0].Hash[pos%len(m.Targets[0].Hash)] ^= 0x01
	case 5:
		m.Targets[0], m.Targets[1] = m.Targets[1], m.Targets[0]
	}
}

// fuzzRestore writes base's fields back into m, in place in the arrays
// m shares (mutations never change their lengths).
func fuzzRestore(m, base *Metadata) {
	m.Repo, m.Version, m.Expires, m.VehicleID = base.Repo, base.Version, base.Expires, base.VehicleID
	copy(m.Targets, base.Targets)
	copy(m.Sig, base.Sig)
}

// FuzzVerifyCache is the verification cache's stateful oracle: no cached
// verdict ever differs from a cold ed25519.Verify. The input is a
// sequence of 4-byte steps (op, object, arg, key) over a pool of live
// metadata objects that starts as private copies of the published ones:
//
//	op%4 == 0: look the object up;
//	op%4 == 1: struct-copy it into a new pool slot (sharing its Targets
//	           and Sig arrays) and look the copy up;
//	op%4 == 2: mutate it in place (fuzzMutate, kind arg%6) and look it up;
//	op%4 == 3: restore it in place to its published fields and look it up.
//
// Each lookup is under pubs[key%2] and is checked against a cold verify.
func FuzzVerifyCache(f *testing.F) {
	p := newFuzzPool()
	f.Fuzz(func(t *testing.T, steps []byte) {
		vc := NewVerifyCache()
		var s canonicalScratch
		var objs []*Metadata
		var origin []int
		for i, b := range p.bases {
			objs, origin = append(objs, deepCopy(b)), append(origin, i)
		}
		for i := 0; i+4 <= len(steps); i += 4 {
			op, arg := steps[i], steps[i+2]
			j := int(steps[i+1]) % len(objs)
			switch op % 4 {
			case 1:
				if len(objs) < 8 {
					c := *objs[j]
					objs, origin = append(objs, &c), append(origin, origin[j])
					j = len(objs) - 1
				}
			case 2:
				fuzzMutate(objs[j], arg)
			case 3:
				fuzzRestore(objs[j], p.bases[origin[j]])
			}
			m, key := objs[j], p.pubs[steps[i+3]%2]
			cold := ed25519.Verify(key, m.canonical(), m.Sig)
			if got := vc.sigValid(m, key, &s); got != cold {
				t.Fatalf("step %d (op %d, object %d, arg %d): cached verdict %v, cold verify %v",
					i/4, op%4, j, arg, got, cold)
			}
		}
	})
}
