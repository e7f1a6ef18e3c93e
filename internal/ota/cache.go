// cache.go implements verify-once-per-campaign memoization: the OTA
// "backend" of a million-vehicle fleet serves the same signed metadata
// and the same payload set to every vehicle of a model, so re-running
// ed25519 signature verification and payload hashing per vehicle is pure
// waste. VerifyCache memoizes the two expensive verification steps —
// signature checks keyed by (repo, key fingerprint, version,
// canonical-bytes hash, signature) and per-bundle target attestation (the
// director×image cross-check plus payload hash checks) — while every
// per-vehicle check (expiry at the vehicle's own clock, metadata and
// target version counters, vehicle/group scoping, ECU compatibility)
// stays uncached. The cache answers only "are these bytes validly
// signed" and "do these repositories agree on these payload bytes";
// nothing vehicle-specific is ever memoized, so a cache hit is exactly
// as strong as a cold verification.
//
// Attestation is keyed by Bundle identity: a published bundle is
// immutable campaign state (the backend signs it once per wave and
// model), so the first vehicle to verify it settles the question for the
// fleet. A tampered payload necessarily arrives in a different Bundle
// value and is re-verified cold.
package ota

import (
	"crypto/ed25519"
	"crypto/sha256"
	"fmt"
	"sync"
	"sync/atomic"

	"autosec/internal/sim"
)

// SigKey is the memoization key of one metadata signature check: the
// repository name, the verification key fingerprint (so a trust-epoch
// rotation can never satisfy a stale entry), the metadata version
// counter, the SHA-256 of the canonical signed bytes and the signature
// itself. A verdict covers exactly one (content, signature) pair, so a
// corrupt copy of genuine content can neither poison nor borrow the
// genuine verdict.
type SigKey struct {
	Repo    string
	KeyID   uint64
	Version uint64
	Sum     [32]byte
	Sig     [ed25519.SignatureSize]byte
}

// attestation is the cached result of cross-checking one bundle's
// director targets against its image targets and payload bytes. plan
// holds the attested targets in director order; err is the verification
// failure, cached too — a bad bundle stays bad for every vehicle.
type attestation struct {
	plan []Target
	err  error
}

// CacheStats reports a cache's traffic. Lookups count memoization
// queries; SigVerifies and AttestBuilds count the cold operations
// actually performed (ed25519 verifications and bundle cross-checks).
// Under concurrent waves the counts are still deterministic: entries are
// inserted under a write lock with a second lookup, so each unique
// signature or bundle is built exactly once no matter how many workers
// race to it.
type CacheStats struct {
	SigLookups    int64
	SigVerifies   int64
	AttestLookups int64
	AttestBuilds  int64
}

// VerifyCache memoizes bundle verification for one trust domain (a
// campaign). Safe for concurrent use by the fleet driver's workers; the
// hit path takes only a read lock and performs no allocation.
type VerifyCache struct {
	mu      sync.RWMutex
	sigs    map[SigKey]bool
	attests map[*Bundle]*attestation

	sigLookups    atomic.Int64
	sigVerifies   atomic.Int64
	attestLookups atomic.Int64
	attestBuilds  atomic.Int64
}

// NewVerifyCache creates an empty cache.
func NewVerifyCache() *VerifyCache {
	return &VerifyCache{
		sigs:    make(map[SigKey]bool),
		attests: make(map[*Bundle]*attestation),
	}
}

// Stats snapshots the cache traffic counters.
func (vc *VerifyCache) Stats() CacheStats {
	return CacheStats{
		SigLookups:    vc.sigLookups.Load(),
		SigVerifies:   vc.sigVerifies.Load(),
		AttestLookups: vc.attestLookups.Load(),
		AttestBuilds:  vc.attestBuilds.Load(),
	}
}

// sigValid reports whether m's signature under key is valid, memoized.
// canon must be m's canonical bytes (rendered by the caller into its own
// scratch so the hit path stays allocation-free). A signature of the
// wrong length is rejected without touching the cache.
func (vc *VerifyCache) sigValid(m *Metadata, key ed25519.PublicKey, keyID uint64, canon []byte) bool {
	if len(m.Sig) != ed25519.SignatureSize {
		return false
	}
	vc.sigLookups.Add(1)
	k := SigKey{Repo: m.Repo, KeyID: keyID, Version: m.Version, Sum: sha256.Sum256(canon), Sig: [ed25519.SignatureSize]byte(m.Sig)}
	vc.mu.RLock()
	valid, ok := vc.sigs[k]
	vc.mu.RUnlock()
	if ok {
		return valid
	}
	vc.mu.Lock()
	if valid, ok = vc.sigs[k]; !ok {
		// Double-checked under the write lock: exactly one worker pays
		// the ed25519 verification per unique key, which is what keeps
		// Stats deterministic at any worker count.
		vc.sigVerifies.Add(1)
		valid = ed25519.Verify(key, canon, m.Sig)
		vc.sigs[k] = valid
	}
	vc.mu.Unlock()
	return valid
}

// attest returns the cached cross-check of b's director targets against
// its image targets and payloads, building it on first sight.
func (vc *VerifyCache) attest(b *Bundle) *attestation {
	vc.attestLookups.Add(1)
	vc.mu.RLock()
	a, ok := vc.attests[b]
	vc.mu.RUnlock()
	if ok {
		return a
	}
	vc.mu.Lock()
	if a, ok = vc.attests[b]; !ok {
		vc.attestBuilds.Add(1)
		a = buildAttestation(b)
		vc.attests[b] = a
	}
	vc.mu.Unlock()
	return a
}

// buildAttestation performs the vehicle-independent half of apply: every
// director target must be attested byte-for-byte by the image repository
// and backed by a payload matching its length and hash.
func buildAttestation(b *Bundle) *attestation {
	imageByName := make(map[string]Target, len(b.Image.Targets))
	for _, t := range b.Image.Targets {
		imageByName[t.Name] = t
	}
	a := &attestation{plan: make([]Target, 0, len(b.Director.Targets))}
	for _, t := range b.Director.Targets {
		it, ok := imageByName[t.Name]
		if !ok || it != t {
			a.err = fmt.Errorf("%w: target %q", ErrMixAndMatch, t.Name)
			return a
		}
		payload, ok := b.Payloads[t.Name]
		if !ok {
			a.err = fmt.Errorf("%w: payload %q", ErrIncomplete, t.Name)
			return a
		}
		if len(payload) != t.Length || HashPayload(payload) != t.Hash {
			a.err = fmt.Errorf("%w: target %q", ErrHashMismatch, t.Name)
			return a
		}
		a.plan = append(a.plan, t)
	}
	return a
}

// ApplyCached verifies a bundle like Apply but routes the expensive
// steps through the cache and applies the campaign-mode semantics a
// fleet rollout needs:
//
//   - director metadata may be addressed to the client's Group (one
//     signed statement per model line instead of per vehicle);
//   - metadata whose version counters exactly match the client's current
//     state answers ErrNoUpdate after signature and freshness checks —
//     the vehicle is up to date, nothing installs, nothing is rejected;
//   - targets already at their installed version are skipped rather than
//     treated as rollback, so vehicles joining a campaign mid-flight at
//     a mix of older versions (version skew) converge instead of
//     erroring.
//
// On the memoized path (every verification the cache already holds) a
// successful ApplyCached performs no allocation. A nil cache falls back
// to Apply.
func (c *Client) ApplyCached(b *Bundle, now sim.Time, vc *VerifyCache) error {
	if vc == nil {
		return c.Apply(b, now)
	}
	if c.obsTr != nil {
		c.obsTr.Instant(now, c.obsSub, c.obsVerify, 0, 0, 0)
	}
	err := c.applyCached(b, now, vc)
	switch {
	case err == nil:
		c.Installed.Inc()
		if c.obsTr != nil {
			c.obsTr.Instant(now, c.obsSub, c.obsInstall, c.obsTr.Label(c.VehicleID), int64(len(b.Director.Targets)), 0)
		}
	case err == ErrNoUpdate:
		c.UpToDate.Inc()
	default:
		c.Rejected.Inc()
		if c.obsTr != nil {
			c.obsTr.Instant(now, c.obsSub, c.obsReject, c.obsTr.Label(errClass(err)), 0, 0)
		}
	}
	return err
}

func (c *Client) applyCached(b *Bundle, now sim.Time, vc *VerifyCache) error {
	if b.Director == nil || b.Image == nil {
		return ErrIncomplete
	}
	// Signatures first (memoized), then per-vehicle freshness: the
	// canonical bytes render into the client's scratch, so a warm cache
	// sees no allocation here.
	if !vc.sigValid(b.Director, c.directorKey, c.directorKeyID, b.Director.canonicalInto(&c.scratch)) {
		return fmt.Errorf("%w: repo %s", ErrBadSignature, b.Director.Repo)
	}
	if !vc.sigValid(b.Image, c.imageKey, c.imageKeyID, b.Image.canonicalInto(&c.scratch)) {
		return fmt.Errorf("%w: repo %s", ErrBadSignature, b.Image.Repo)
	}
	if err := checkFresh(b.Director, now); err != nil {
		return err
	}
	if err := checkFresh(b.Image, now); err != nil {
		return err
	}
	if b.Director.VehicleID != c.VehicleID && (c.Group == "" || b.Director.VehicleID != c.Group) {
		return fmt.Errorf("%w: %q", ErrWrongVehicle, b.Director.VehicleID)
	}
	// Version counters. Exactly-current metadata on both repositories is
	// the freshness re-check a polling vehicle performs every campaign
	// wave; anything at or below the high-water mark otherwise is replay.
	if b.Director.Version == c.lastDirectorVersion && b.Image.Version == c.lastImageVersion {
		return ErrNoUpdate
	}
	if b.Director.Version <= c.lastDirectorVersion {
		return fmt.Errorf("%w: repo %s version %d <= %d", ErrRollback, b.Director.Repo, b.Director.Version, c.lastDirectorVersion)
	}
	if b.Image.Version <= c.lastImageVersion {
		return fmt.Errorf("%w: repo %s version %d <= %d", ErrRollback, b.Image.Repo, b.Image.Version, c.lastImageVersion)
	}

	a := vc.attest(b)
	if a.err != nil {
		return a.err
	}
	c.plan = c.plan[:0]
	for i := range a.plan {
		t := &a.plan[i]
		ecu, ok := c.ecus[t.HWID]
		if !ok {
			return fmt.Errorf("%w: %q", ErrWrongHW, t.HWID)
		}
		if t.Version < ecu.InstalledVersion {
			return fmt.Errorf("%w: target %q version %d < installed %d",
				ErrRollback, t.Name, t.Version, ecu.InstalledVersion)
		}
		if t.Version == ecu.InstalledVersion {
			continue // skew tolerance: already at the campaign target
		}
		c.plan = append(c.plan, pendingInstall{ecu: ecu, t: *t})
	}
	for _, p := range c.plan {
		p.ecu.InstalledName = p.t.Name
		p.ecu.InstalledVersion = p.t.Version
	}
	c.lastDirectorVersion = b.Director.Version
	c.lastImageVersion = b.Image.Version
	return nil
}
