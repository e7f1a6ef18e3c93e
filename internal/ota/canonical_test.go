package ota

import (
	"bytes"
	"crypto/ed25519"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"autosec/internal/sim"
)

// TestExpiryBoundary is the regression test for the freshness off-by-one:
// "expires at T" must mean invalid at T. The old comparison (now >
// Expires) accepted metadata at exactly its expiry instant, handing a
// freeze attacker one extra replay window at the boundary.
func TestExpiryBoundary(t *testing.T) {
	f := newFixture(t)
	exp := sim.Hour
	err := f.client.Apply(f.bundle(exp), exp) // now == Expires
	if !errors.Is(err, ErrExpiredMeta) {
		t.Fatalf("metadata at its expiry instant must be rejected, got %v", err)
	}
	if !strings.Contains(err.Error(), fmt.Sprintf("expired %v", exp)) {
		t.Fatalf("expiry error should name the expiry time: %q", err)
	}
	// One tick before the boundary is still fresh.
	f2 := newFixture(t)
	if err := f2.client.Apply(f2.bundle(exp), exp-1); err != nil {
		t.Fatalf("metadata one tick before expiry must verify: %v", err)
	}
}

// variant returns a sealed copy of m changed by edit. The copy owns its
// targets and signature, so edit may write any field without touching
// m, and it is sealed under the signature edit leaves in place (m's own
// unless edit replaces it) without re-signing: the tampered metadata an
// attacker can present, or a bare value for the encoding tests.
func variant(m *Metadata, edit func(v *Metadata)) *Metadata {
	v := &Metadata{repo: m.repo, version: m.version, expires: m.expires, vehicleID: m.vehicleID,
		targets: slices.Clone(m.targets), sig: slices.Clone(m.sig)}
	edit(v)
	return v.seal(func([]byte) []byte { return v.sig })
}

// TestMetadataFieldsUnexported pins what makes a seal sound: no code
// outside the package can write a Metadata field after Sign or
// ForgeMetadata has taken its digest.
func TestMetadataFieldsUnexported(t *testing.T) {
	typ := reflect.TypeOf(Metadata{})
	for i := 0; i < typ.NumField(); i++ {
		if f := typ.Field(i); f.IsExported() {
			t.Errorf("Metadata.%s is exported", f.Name)
		}
	}
}

// TestSealMatchesCanonical checks the seal of both signing paths: canon
// is a fresh render of the fields, sig verifies over it, and sum is the
// SHA-256 of canon followed by sig. It holds after the caller mutates
// the targets slice it passed in, so neither path may keep that slice.
func TestSealMatchesCanonical(t *testing.T) {
	f := newCampaignFixture(t, sim.Hour)
	adas := MakeTarget("adas-fw", 2, "adas-soc-r1", []byte("adas model weights v2"))
	for _, c := range []struct {
		name string
		sign func([]Target) *Metadata
		key  ed25519.PublicKey
	}{
		{"Sign", func(ts []Target) *Metadata { return f.director.Sign("model-S", ts, sim.Hour) }, f.director.PublicKey()},
		{"ForgeMetadata", func(ts []Target) *Metadata {
			return ForgeMetadata(f.image.StealKey(), "image", "", 9, ts, sim.Hour)
		}, f.image.PublicKey()},
	} {
		targets := []Target{f.target, adas}
		m := c.sign(targets)
		targets[0].Version, targets[1] = 99, targets[0]
		if canon := m.canonical(); !bytes.Equal(m.canon, canon) {
			t.Errorf("%s: sealed canonical bytes differ from a fresh render after the caller changed its targets", c.name)
		}
		if !ed25519.Verify(c.key, m.canon, m.sig) {
			t.Errorf("%s: signature does not verify over the sealed bytes", c.name)
		}
		if m.sum != sha256.Sum256(append(slices.Clone(m.canon), m.sig...)) {
			t.Errorf("%s: sealed digest is not SHA-256(canon || sig)", c.name)
		}
	}
}

// TestCanonicalFieldBoundaryRegression pins the field-boundary ambiguity
// the length-prefixed encoding fixes: under the old NUL-terminated
// scheme, a VehicleID embedding a NUL byte could absorb the bytes of the
// first target's name, letting two semantically different metadata
// values share canonical bytes (and therefore one signature).
func TestCanonicalFieldBoundaryRegression(t *testing.T) {
	a := variant(&Metadata{}, func(m *Metadata) {
		m.repo, m.version, m.expires = "director", 7, sim.Hour
		m.vehicleID = "VIN-1"
		m.targets = []Target{{Name: "brake-fw", Version: 2, HWID: "hw"}}
	})
	b := variant(&Metadata{}, func(m *Metadata) {
		m.repo, m.version, m.expires = "director", 7, sim.Hour
		m.vehicleID = "VIN-1\x00brake-fw"
		m.targets = []Target{{Name: "", Version: 2, HWID: "hw"}}
	})
	if bytes.Equal(a.canon, b.canon) {
		t.Fatal("metadata values shifting bytes across a field boundary share canonical bytes")
	}
}

// TestCanonicalTargetOrderInvariant: the encoding must be a function of
// the metadata *value*, so target slice order cannot matter.
func TestCanonicalTargetOrderInvariant(t *testing.T) {
	t1 := Target{Name: "a-fw", Version: 1, HWID: "hw-a", Length: 3}
	t2 := Target{Name: "b-fw", Version: 2, HWID: "hw-b", Length: 5}
	t3 := Target{Name: "c-fw", Version: 3, HWID: "hw-c", Length: 7}
	a := variant(&Metadata{}, func(m *Metadata) { m.repo, m.version, m.targets = "image", 1, []Target{t1, t2, t3} })
	b := variant(&Metadata{}, func(m *Metadata) { m.repo, m.version, m.targets = "image", 1, []Target{t3, t1, t2} })
	if !bytes.Equal(a.canon, b.canon) {
		t.Fatal("canonical bytes depend on target slice order")
	}
}

// TestCanonicalCollisionResistance is the property test: across a large
// deterministic sample of metadata values — with hostile strings full of
// NULs and length-prefix-looking bytes — distinct values must never
// share canonical bytes.
func TestCanonicalCollisionResistance(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	alphabet := []byte("ab\x00\x01\x02\xff-")
	randStr := func(max int) string {
		n := rng.Intn(max + 1)
		s := make([]byte, n)
		for i := range s {
			s[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return string(s)
	}
	key := func(m *Metadata) string {
		// Semantic identity: targets in name order, all fields delimited
		// unambiguously via %q.
		names := make([]string, len(m.targets))
		for i := range m.targets {
			names[i] = m.targets[i].Name
		}
		parts := []string{fmt.Sprintf("%q|%d|%d|%q", m.repo, m.version, m.expires, m.vehicleID)}
		for _, i := range sortedOrder(names) {
			tg := m.targets[i]
			parts = append(parts, fmt.Sprintf("%q|%d|%q|%d|%x", tg.Name, tg.Version, tg.HWID, tg.Length, tg.Hash))
		}
		return strings.Join(parts, "||")
	}
	seen := make(map[string]string) // canonical bytes -> semantic key
	for i := 0; i < 5000; i++ {
		m := variant(&Metadata{}, func(m *Metadata) {
			m.repo = randStr(4)
			m.version = uint64(rng.Intn(4))
			m.expires = sim.Time(rng.Intn(3))
			m.vehicleID = randStr(6)
			names := make(map[string]bool)
			for k := rng.Intn(3); k > 0; k-- {
				name := randStr(5)
				if names[name] {
					continue // duplicate target names are not a valid value
				}
				names[name] = true
				tg := Target{Name: name, Version: uint64(rng.Intn(3)), HWID: randStr(3), Length: rng.Intn(4)}
				tg.Hash[0] = byte(rng.Intn(2))
				m.targets = append(m.targets, tg)
			}
		})
		canon := string(m.canon)
		sem := key(m)
		if prev, ok := seen[canon]; ok && prev != sem {
			t.Fatalf("canonical collision:\n  %s\n  %s", prev, sem)
		}
		seen[canon] = sem
	}
}

func sortedOrder(names []string) []int {
	order := make([]int, 0, len(names))
	for i := range names {
		j := len(order)
		order = append(order, i)
		for j > 0 && names[order[j]] < names[order[j-1]] {
			order[j], order[j-1] = order[j-1], order[j]
			j--
		}
	}
	return order
}
