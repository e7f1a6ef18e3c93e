// attack.go models the mid-campaign attacker: what bundle a compromised
// update channel serves to a vehicle instead of the current campaign.
// Every attack here replays or forges *signed* artifacts — the attacker
// controls distribution, not the vehicles' verifiers — so the outcomes
// measure exactly what the metadata design does and does not stop.
package campaign

import (
	"crypto/ed25519"
	"fmt"

	"autosec/internal/ota"
	"autosec/internal/sim"
)

// AttackKind selects the mid-campaign attack.
type AttackKind int

const (
	// AttackNone: honest channel.
	AttackNone AttackKind = iota
	// AttackFreeze replays each vehicle's own current metadata — the
	// vehicle keeps answering "up to date" and silently misses the
	// campaign until the replayed metadata expires, which is when the
	// freeze becomes detectable (ErrExpiredMeta).
	AttackFreeze
	// AttackRollback replays the stale-but-signed baseline campaign to
	// every attacked vehicle. Vehicles that installed the baseline see
	// their own current metadata (a freeze); vehicles that missed it —
	// the late joiners — accept the stale firmware, which is the rollback
	// blast radius.
	AttackRollback
	// AttackImageKey is a single stolen key: the attacker signs malicious
	// image metadata with the real image-repo key but can only replay
	// legitimate director metadata, so the two repositories disagree.
	AttackImageKey
	// AttackTwoKey is the full compromise: both repository keys stolen,
	// forged metadata agrees on the malicious payload and installs.
	// Containment comes from the rollout shape (waves, abort, rotation),
	// not from verification.
	AttackTwoKey
)

// String names the attack for reports and tables.
func (k AttackKind) String() string {
	switch k {
	case AttackNone:
		return "none"
	case AttackFreeze:
		return "freeze"
	case AttackRollback:
		return "rollback"
	case AttackImageKey:
		return "imagekey"
	case AttackTwoKey:
		return "twokey"
	default:
		return "unknown"
	}
}

// AttackPlan schedules an attack over the campaign's waves.
type AttackPlan struct {
	Kind AttackKind
	// FromWave is the first attacked wave index; attacked waves continue
	// to the end of the campaign (rotation neutralizes stolen keys but
	// the attacker keeps trying).
	FromWave int
}

// active reports whether wave wi is attacked.
func (p AttackPlan) active(wi int) bool {
	return p.Kind != AttackNone && wi >= p.FromWave
}

// forged holds the attacker's pre-built artifacts for one campaign: the
// per-model forged bundles constructed from whatever keys were stolen.
// Built once (bundles must be identical across vehicles and waves so the
// verification cache sees a fleet-shaped workload and attestation
// caching stays sound).
type forged struct {
	bundles []*ota.Bundle
}

// forge builds the attacker's per-model bundles against backend b at the
// moment of compromise (the current trust epoch's keys). The director
// and the image statements are signed at the same time when the
// backend's workers allow.
func forge(kind AttackKind, b *Backend, expires sim.Time) *forged {
	f := &forged{bundles: make([]*ota.Bundle, b.models)}
	var dirKey, imgKey ed25519.PrivateKey
	switch kind {
	case AttackImageKey:
		imgKey = b.StealImageKey()
	case AttackTwoKey:
		dirKey, imgKey = b.StealKeys()
	default:
		return f
	}
	evil := make([][]ota.Target, b.models)
	for m := range f.bundles {
		evil[m] = []ota.Target{evilTarget(m)}
		f.bundles[m] = &ota.Bundle{Payloads: map[string][]byte{evil[m][0].Name: evilPayload(m)}}
	}
	bothRepos(b.workers, func() {
		for m, bundle := range f.bundles {
			if dirKey == nil {
				// With the image key alone, director metadata is replayed
				// verbatim — its signature is valid but it attests the
				// real target, so the forged image metadata can never
				// agree with it.
				bundle.Director = b.Current(m).Director
				continue
			}
			bundle.Director = ota.ForgeMetadata(dirKey, "director", Group(m), versionEvil, evil[m], expires)
		}
	}, func() {
		for m, bundle := range f.bundles {
			bundle.Image = ota.ForgeMetadata(imgKey, "image", "", versionEvil, evil[m], expires)
		}
	})
	return f
}

// evilPayload is the attacker's firmware image for one model.
func evilPayload(model int) []byte {
	return []byte(fmt.Sprintf("model-%d MALICIOUS implant :: ffffffffffffffff", model))
}

// evilTarget wraps the malicious payload as a validly-shaped target for
// the model's real ECU hardware at the forged version counter.
func evilTarget(model int) ota.Target {
	return ota.MakeTarget(fmt.Sprintf("model-%d/app-fw", model), versionEvil, hwid(model), evilPayload(model))
}
