// cache.go implements verify-once-per-campaign memoization: the OTA
// "backend" of a million-vehicle fleet serves the same signed metadata
// and the same payload set to every vehicle of a model, so re-running
// ed25519 signature verification and payload hashing per vehicle is pure
// waste. VerifyCache memoizes the two expensive verification steps —
// signature checks keyed by the verification key and a digest of the
// canonical bytes and the signature, and per-bundle target attestation
// (the director×image cross-check plus payload hash checks) — while
// every per-vehicle check (expiry at the vehicle's own clock, metadata
// and target version counters, vehicle/group scoping, ECU
// compatibility) stays uncached. The cache answers only "are these bytes
// validly signed" and "do these repositories agree on these payload
// bytes"; nothing vehicle-specific is ever memoized, so a cache hit is
// exactly as strong as a cold verification.
//
// A signature lookup takes one of two paths. The content path renders
// the canonical bytes, hashes them with the signature and looks the
// digest up, verifying cold on a miss. The first Metadata object whose
// content path hits (its content was seen before: the second vehicle to
// check a published statement) is promoted to an identity memo holding
// a deep snapshot of its signed fields and signature; each verdict
// promotes at most one object, so copies cannot grow the memo table.
// Later lookups of that same object compare the snapshot field by field
// and answer without rendering or hashing. A copy of the object is a
// different pointer and takes the content path; an in-place mutation
// fails the compare and takes it too.
//
// Attestation is keyed by Bundle identity: a published bundle is
// immutable campaign state (the backend signs it once per wave and
// model), so the first vehicle to verify it settles the question for the
// fleet. A tampered payload necessarily arrives in a different Bundle
// value and is re-verified cold.
package ota

import (
	"bytes"
	"crypto/ed25519"
	"crypto/sha256"
	"fmt"
	"sync"
	"sync/atomic"

	"autosec/internal/sim"
)

// SigKey is the content key of one metadata signature check: the
// verification key itself (so a trust-epoch rotation can never satisfy a
// stale entry) and the SHA-256 of the canonical signed bytes followed by
// the 64-byte signature. The canonical bytes carry the repository name
// and version counter, so a verdict covers exactly one (content,
// signature) pair under one key: a corrupt copy of genuine content can
// neither poison nor borrow the genuine verdict. At 64 bytes the key is
// stored inline in the map, so inserting one allocates nothing.
type SigKey struct {
	Key [ed25519.PublicKeySize]byte
	Sum [sha256.Size]byte
}

// sigVerdict is the cached outcome of one content key. promoted records
// that an object has been promoted to an identity memo for it.
type sigVerdict struct {
	valid, promoted bool
}

// identKey names one Metadata object under one verification key.
type identKey struct {
	m   *Metadata
	key [ed25519.PublicKeySize]byte
}

// sigMemo is a promoted verdict: every field of a Metadata object, deep
// copied when its content verdict was found, and that verdict. It is
// immutable once inserted. A field added to Metadata must be added here
// and to matches (TestSigMemoCoversMetadata fails until it is).
type sigMemo struct {
	repo, vehicleID string
	version         uint64
	expires         sim.Time
	targets         []Target
	sig             [ed25519.SignatureSize]byte
	valid           bool
}

func newSigMemo(m *Metadata, valid bool) *sigMemo {
	s := &sigMemo{
		repo: m.Repo, vehicleID: m.VehicleID, version: m.Version, expires: m.Expires,
		targets: append([]Target(nil), m.Targets...), valid: valid,
	}
	copy(s.sig[:], m.Sig)
	return s
}

// matches reports whether m still holds exactly the snapshotted fields
// and signature.
func (s *sigMemo) matches(m *Metadata) bool {
	if m.Version != s.version || m.Expires != s.expires || m.Repo != s.repo ||
		m.VehicleID != s.vehicleID || len(m.Targets) != len(s.targets) || !bytes.Equal(m.Sig, s.sig[:]) {
		return false
	}
	for i := range s.targets {
		if m.Targets[i] != s.targets[i] {
			return false
		}
	}
	return true
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
// hit paths take only a read lock and perform no allocation.
//
// sigs holds one verdict per SigKey, negative verdicts included. idents
// holds the identity memos of objects promoted on a content hit, at most
// one per verdict, so it never outgrows sigs; it is created on the first
// promotion, so a cache that only ever verifies cold never builds it.
type VerifyCache struct {
	mu      sync.RWMutex
	sigs    map[SigKey]sigVerdict
	idents  map[identKey]*sigMemo
	attests map[*Bundle]*attestation

	sigLookups    atomic.Int64
	sigVerifies   atomic.Int64
	attestLookups atomic.Int64
	attestBuilds  atomic.Int64
}

// NewVerifyCache creates an empty cache.
func NewVerifyCache() *VerifyCache {
	return &VerifyCache{
		sigs:    make(map[SigKey]sigVerdict),
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
// An identity memo for (m, key) that still matches m answers at once.
// Otherwise the canonical bytes render into s (the caller's scratch, so
// the content path stays allocation-free once s has grown) and the
// content digest is looked up, verifying cold on a miss and, on a hit,
// promoting (m, key) unless the verdict already promoted an object. A
// signature or key of the wrong length is rejected without touching the
// cache.
func (vc *VerifyCache) sigValid(m *Metadata, key ed25519.PublicKey, s *canonicalScratch) bool {
	if len(m.Sig) != ed25519.SignatureSize || len(key) != ed25519.PublicKeySize {
		return false
	}
	vc.sigLookups.Add(1)
	id := identKey{m: m, key: [ed25519.PublicKeySize]byte(key)}
	vc.mu.RLock()
	memo := vc.idents[id]
	vc.mu.RUnlock()
	if memo != nil && memo.matches(m) {
		return memo.valid
	}

	canon := m.canonicalInto(s)
	s.buf = append(canon, m.Sig...)
	k := SigKey{Key: id.key, Sum: sha256.Sum256(s.buf)}
	vc.mu.RLock()
	v, ok := vc.sigs[k]
	vc.mu.RUnlock()
	if ok && (v.promoted || memo != nil) {
		// Nothing to promote: the verdict's one memo is taken, or m
		// holds a memo it no longer matches after an in-place change
		// (the snapshot stays, so restoring m brings the memo back).
		return v.valid
	}
	vc.mu.Lock()
	if v, ok = vc.sigs[k]; ok {
		if !v.promoted && vc.idents[id] == nil {
			if vc.idents == nil {
				vc.idents = make(map[identKey]*sigMemo)
			}
			vc.idents[id] = newSigMemo(m, v.valid)
			v.promoted = true
			vc.sigs[k] = v
		}
	} else {
		// Double-checked under the write lock: exactly one worker pays
		// the ed25519 verification per unique key, which is what keeps
		// Stats deterministic at any worker count.
		vc.sigVerifies.Add(1)
		v.valid = ed25519.Verify(key, canon, m.Sig)
		vc.sigs[k] = v
	}
	vc.mu.Unlock()
	return v.valid
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
	// Signatures first (memoized), then per-vehicle freshness. A content
	// lookup renders into the client's scratch, so a warm cache sees no
	// allocation here.
	if !vc.sigValid(b.Director, c.directorKey, &c.scratch) {
		return fmt.Errorf("%w: repo %s", ErrBadSignature, b.Director.Repo)
	}
	if !vc.sigValid(b.Image, c.imageKey, &c.scratch) {
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
