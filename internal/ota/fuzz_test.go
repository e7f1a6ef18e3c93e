package ota

import (
	"crypto/ed25519"
	"testing"

	"autosec/internal/sim"
)

// seededKey returns the ed25519 key whose seed is seed followed by
// zeros, so committed corpora mean the same thing on every run.
func seededKey(seed byte) ed25519.PrivateKey {
	s := make([]byte, ed25519.SeedSize)
	s[0] = seed
	return ed25519.NewKeyFromSeed(s)
}

// fuzzPool is the fuzzed cache's trust keys and published metadata: two
// keys from fixed seeds and three signed objects of two targets each, so
// every object can have its targets swapped.
type fuzzPool struct {
	pubs  [2]ed25519.PublicKey
	bases []*Metadata
}

func newFuzzPool() *fuzzPool {
	var p fuzzPool
	var privs [2]ed25519.PrivateKey
	for i := range privs {
		privs[i] = seededKey(byte(i + 1))
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

// fuzzTamper returns a sealed variant of m with one signed field changed
// (kind arg%6) under m's signature, without re-signing. Tampering twice
// with the same arg undoes a signature flip, a hash flip or a swap.
func fuzzTamper(m *Metadata, arg byte) *Metadata {
	pos := int(arg / 6)
	return variant(m, func(v *Metadata) {
		switch arg % 6 {
		case 0:
			v.sig[pos%len(v.sig)] ^= 0x80
		case 1:
			v.version++
		case 2:
			v.expires += sim.Second
		case 3:
			v.vehicleID += "x"
		case 4:
			v.targets[0].Hash[pos%len(v.targets[0].Hash)] ^= 0x01
		case 5:
			v.targets[0], v.targets[1] = v.targets[1], v.targets[0]
		}
	})
}

// FuzzVerifyCache is the verification cache's stateful oracle: no cached
// verdict ever differs from a cold ed25519.Verify over canonical bytes
// rendered afresh from the fields, so a seal that went stale would show.
// The input is a sequence of 4-byte steps (op, object, arg, key) over a
// pool of metadata objects that starts as the published ones:
//
//	op%4 == 0: look the object up;
//	op%4 == 1: struct-copy it into a new pool slot and look the copy up;
//	op%4 == 2: replace it with a tampered variant (fuzzTamper, kind
//	           arg%6) and look that up;
//	op%4 == 3: put back the published object it descends from and look
//	           that up again.
//
// Each lookup is under pubs[key%2] and is checked against a cold verify.
func FuzzVerifyCache(f *testing.F) {
	p := newFuzzPool()
	f.Fuzz(func(t *testing.T, steps []byte) {
		vc := NewVerifyCache()
		objs := append([]*Metadata(nil), p.bases...)
		origin := []int{0, 1, 2}
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
				objs[j] = fuzzTamper(objs[j], arg)
			case 3:
				objs[j] = p.bases[origin[j]]
			}
			m, key := objs[j], p.pubs[steps[i+3]%2]
			cold := ed25519.Verify(key, m.canonical(), m.sig)
			if got := vc.sigValid(m, key); got != cold {
				t.Fatalf("step %d (op %d, object %d, arg %d): cached verdict %v, cold verify %v",
					i/4, op%4, j, arg, got, cold)
			}
		}
	})
}
