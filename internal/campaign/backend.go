// backend.go is the OEM side of a campaign: the director and image
// repositories, the per-model bundle generations they have published,
// and the trust-epoch rotation used to recover from key compromise.
// Bundles are published once per (generation, model) and then shared by
// every vehicle of the model — the structure that makes the fleet's
// verify-once-per-campaign memoization effective — and are immutable
// after publication (the ota.VerifyCache caches attestations per bundle
// identity on exactly that contract).
package campaign

import (
	"crypto/ed25519"
	"fmt"

	"autosec/internal/fleet"
	"autosec/internal/ota"
	"autosec/internal/sim"
)

// Generation indices into Backend.gens: the firmware history every
// campaign starts from. Factory firmware ships on every vehicle,
// baseline is the previous campaign (late joiners miss it — that is the
// version skew), current is the campaign being rolled out.
const (
	GenFactory = iota
	GenBaseline
	GenCurrent
)

// Firmware versions carried by the generations.
const (
	versionFactory  = 1
	versionBaseline = 2
	versionCurrent  = 3
	// versionEvil is the counter the attacker forges: far above anything
	// legitimate so the forged bundle clears every version check.
	versionEvil = 900
)

// Backend is the campaign's server side: two repository signers and the
// published per-model bundle generations.
type Backend struct {
	director *ota.Repository
	image    *ota.Repository
	models   int
	// gens[g][m] is generation g's bundle for model m. Published bundles
	// are immutable.
	gens [][]*ota.Bundle
	// workers bounds the goroutines that sign (see bothRepos).
	workers int
	// Epoch counts trust-epoch rotations (0 = factory trust).
	Epoch int
}

// NewBackend creates the repositories and publishes the factory and
// baseline generations with the given stale-metadata expiry, then the
// current campaign with the campaign expiry. The two repositories sign
// at the same time when workers (<= 0 means GOMAXPROCS) allows.
func NewBackend(models, workers int, staleExpiry, campaignExpiry sim.Time) (*Backend, error) {
	if models < 1 {
		models = 1
	}
	b := &Backend{models: models, workers: workers}
	if err := b.newRepos(); err != nil {
		return nil, err
	}
	b.publish(
		release{versionFactory, staleExpiry},
		release{versionBaseline, staleExpiry},
		release{versionCurrent, campaignExpiry},
	)
	return b, nil
}

func (b *Backend) newRepos() error {
	d, err := ota.NewRepository("director")
	if err != nil {
		return err
	}
	im, err := ota.NewRepository("image")
	if err != nil {
		return err
	}
	b.director, b.image = d, im
	return nil
}

// Group names the campaign addressing group of a model line; director
// metadata is signed once per group, not once per vehicle.
func Group(model int) string { return fmt.Sprintf("model-%d", model) }

// hwid names the updatable ECU hardware of a model line.
func hwid(model int) string { return fmt.Sprintf("ecu-m%d-app", model) }

// payload renders the deterministic firmware image bytes for one
// (model, version) pair.
func payload(model int, version uint64) []byte {
	return []byte(fmt.Sprintf("model-%d app firmware v%d :: 0123456789abcdef0123456789abcdef", model, version))
}

// target builds the (model, version) update target.
func target(model int, version uint64) ota.Target {
	return ota.MakeTarget(fmt.Sprintf("model-%d/app-fw", model), version, hwid(model), payload(model, version))
}

// release is one generation to publish: its firmware version and the
// expiry of its metadata.
type release struct {
	version uint64
	expires sim.Time
}

// publish appends one generation per release, each one bundle per model
// at the release's firmware version. Each repository signs its
// statements in (generation, model) order, so the version counters are
// the same whether or not the two sign at the same time.
func (b *Backend) publish(rels ...release) {
	type statement struct {
		bundle  *ota.Bundle
		group   string
		targets []ota.Target
		expires sim.Time
	}
	var stmts []statement
	for _, r := range rels {
		gen := make([]*ota.Bundle, b.models)
		for m := range gen {
			t := target(m, r.version)
			gen[m] = &ota.Bundle{Payloads: map[string][]byte{t.Name: payload(m, r.version)}}
			stmts = append(stmts, statement{gen[m], Group(m), []ota.Target{t}, r.expires})
		}
		b.gens = append(b.gens, gen)
	}
	bothRepos(b.workers, func() {
		for _, s := range stmts {
			s.bundle.Director = b.director.Sign(s.group, s.targets, s.expires)
		}
	}, func() {
		for _, s := range stmts {
			s.bundle.Image = b.image.Sign("", s.targets, s.expires)
		}
	})
}

// bothRepos runs director and image, each one repository's signing, on a
// goroutine of their own when workers (<= 0 means GOMAXPROCS) is above
// 1, and in turn on one goroutine otherwise; it returns when both have.
// A Repository is not safe for concurrent Sign, so each repository's
// statements stay on one goroutine.
func bothRepos(workers int, director, image func()) {
	fleet.ForShards(2, workers, func(_, lo, hi int) {
		for r := lo; r < hi; r++ {
			if r == 0 {
				director()
			} else {
				image()
			}
		}
	})
}

// Bundle returns generation gen's bundle for model m.
func (b *Backend) Bundle(gen, m int) *ota.Bundle { return b.gens[gen][m] }

// Current returns the newest published bundle for model m — what an
// honest update channel serves.
func (b *Backend) Current(m int) *ota.Bundle { return b.gens[len(b.gens)-1][m] }

// Keys returns the verification keys of the current trust epoch.
func (b *Backend) Keys() (director, image ed25519.PublicKey) {
	return b.director.PublicKey(), b.image.PublicKey()
}

// StealKeys returns both repositories' signing keys — the attacker-side
// primitive for the two-key compromise scenario.
func (b *Backend) StealKeys() (director, image ed25519.PrivateKey) {
	return b.director.StealKey(), b.image.StealKey()
}

// StealImageKey returns only the image repository's signing key.
func (b *Backend) StealImageKey() ed25519.PrivateKey { return b.image.StealKey() }

// RotateTrust moves the backend to a new trust epoch: fresh repository
// keys (version counters restart at 1, the Uptane root-rotation
// analogue) and a republished current campaign under the new keys. The
// previously published generations stay in gens — an attacker still
// holds those bytes — but nothing new is ever signed under the old keys.
func (b *Backend) RotateTrust(campaignExpiry sim.Time) error {
	if err := b.newRepos(); err != nil {
		return err
	}
	b.Epoch++
	b.publish(release{versionCurrent, campaignExpiry})
	return nil
}
