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
// A signature lookup is one table read. Sign and ForgeMetadata seal each
// Metadata when they build it: its canonical bytes, and the SHA-256 of
// those bytes followed by the signature, are fixed then and never change,
// because no field can be written afterwards. The lookup keys the verdict
// by that digest and the verification key, so no lookup renders or hashes
// anything, and a struct copy, which carries the same immutable content
// and digest, answers from the same entry.
//
// Attestation is keyed by Bundle identity: a published bundle is
// immutable campaign state (the backend signs it once per wave and
// model), so the first vehicle to verify it settles the question for the
// fleet. A tampered payload necessarily arrives in a different Bundle
// value and is re-verified cold.
//
// Both tables are read without a lock, so a fleet's workers never queue
// behind each other on the memoized path. A miss registers one in-flight
// entry for its key and computes the value outside any lock; workers
// that miss on the same key meanwhile wait for that one result, and
// workers on other keys verify at the same time.
package ota

import (
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/bits"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"unsafe"

	"autosec/internal/sim"
)

// SigKey is the content key of one metadata signature check: the
// verification key itself (so a trust-epoch rotation can never satisfy a
// stale entry) and the SHA-256 of the canonical signed bytes followed by
// the 64-byte signature. The canonical bytes carry the repository name
// and version counter, so a verdict covers exactly one (content,
// signature) pair under one key: a corrupt copy of genuine content can
// neither poison nor borrow the genuine verdict.
type SigKey struct {
	Key [ed25519.PublicKeySize]byte
	Sum [sha256.Size]byte
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
// Under concurrent waves the counts are still deterministic: only the
// lookup that registers a key's in-flight entry computes its value, so
// each unique signature or bundle is verified exactly once no matter how
// many workers race to it.
type CacheStats struct {
	SigLookups    int64
	SigVerifies   int64
	AttestLookups int64
	AttestBuilds  int64
}

// VerifyCache memoizes bundle verification for one trust domain (a
// campaign). Safe for concurrent use by the fleet driver's workers; a
// hit takes no lock and performs no allocation.
//
// sigs holds one verdict per SigKey, negative verdicts included.
type VerifyCache struct {
	sigs    memo[SigKey, bool]
	attests memo[*Bundle, *attestation]

	sigLookups    atomic.Int64
	sigVerifies   atomic.Int64
	attestLookups atomic.Int64
	attestBuilds  atomic.Int64
}

// NewVerifyCache creates an empty cache.
func NewVerifyCache() *VerifyCache {
	vc := new(VerifyCache)
	vc.sigs.init()
	vc.attests.init()
	return vc
}

// memoKey is a key of a memo table: comparable, and hashed under the
// table's random seed so that keys an attacker picks cannot be steered
// into one probe chain.
type memoKey interface {
	comparable
	hash(seed uint64) uint64
}

// fib is 2^64 divided by the golden ratio: multiplying by it spreads a
// key's bits into the high bits a table index is taken from.
const fib = 0x9e3779b97f4a7c15

// hash mixes the first words of the digest and of the verification key,
// so one statement checked under two keys lands in two places.
func (k SigKey) hash(seed uint64) uint64 {
	return (binary.LittleEndian.Uint64(k.Sum[:]) ^ binary.LittleEndian.Uint64(k.Key[:]) ^ seed) * fib
}

// hash mixes the bundle's address: attestations are keyed by identity,
// and Go does not move heap objects.
func (b *Bundle) hash(seed uint64) uint64 {
	return (uint64(uintptr(unsafe.Pointer(b))) ^ seed) * fib
}

// memo is one table of the cache: an open-addressing hash table with
// linear probing whose slots are claimed under mu and read without it.
// A slot's key is written before its state leaves slotEmpty and never
// changes afterwards, and its value is written before the state becomes
// slotDone; both states are stored atomically, so a reader that sees
// slotDone reads a complete entry. A miss claims the key's slot as
// slotPending under mu, releases mu to compute the value, then publishes
// it and wakes every lookup that found the slot pending meanwhile: each
// key is computed exactly once, and lookups of other keys, hits or
// misses, never wait for it. Growing copies the slots into a table twice
// the size and publishes that; a reader still probing the old table at
// worst misses and takes the locked path, which reads the current one.
type memo[K memoKey, V any] struct {
	tab  atomic.Pointer[memoTable[K, V]]
	seed uint64

	mu     sync.Mutex
	landed sync.Cond // on mu; broadcast when a value is published
	used   int       // claimed slots, under mu
}

// memoTable is one generation of a memo's slots. Its length is a power
// of two and at most half of it is claimed, so every probe chain ends at
// an empty slot.
type memoTable[K memoKey, V any] struct {
	slots []memoSlot[K, V]
	shift uint // 64 - log2(len(slots)): a hash's top bits index the table
}

type memoSlot[K memoKey, V any] struct {
	state atomic.Uint32
	key   K
	v     V
}

// Slot states.
const (
	slotEmpty uint32 = iota
	slotPending
	slotDone
)

// minSlots is the size of a memo's first table.
const minSlots = 16

func (t *memo[K, V]) init() {
	t.seed = rand.Uint64()
	t.landed.L = &t.mu
}

// find returns k's slot in tab, or nil if k has none.
func (tab *memoTable[K, V]) find(k K, h uint64) *memoSlot[K, V] {
	mask := uint64(len(tab.slots) - 1)
	for i := h >> tab.shift; ; i = (i + 1) & mask {
		s := &tab.slots[i]
		if s.state.Load() == slotEmpty {
			return nil
		}
		if s.key == k {
			return s
		}
	}
}

// claim writes k, v and state into k's first empty slot of tab. Called
// under mu, for a key tab does not hold.
func (tab *memoTable[K, V]) claim(k K, h uint64, v V, state uint32) {
	mask := uint64(len(tab.slots) - 1)
	i := h >> tab.shift
	for tab.slots[i].state.Load() != slotEmpty {
		i = (i + 1) & mask
	}
	s := &tab.slots[i]
	s.key, s.v = k, v
	s.state.Store(state)
}

// get returns k's value, running compute if this is the first lookup of
// k; computed reports whether this call ran it.
func (t *memo[K, V]) get(k K, compute func() V) (v V, computed bool) {
	h := k.hash(t.seed)
	if tab := t.tab.Load(); tab != nil {
		if s := tab.find(k, h); s != nil && s.state.Load() == slotDone {
			return s.v, false
		}
	}
	return t.fill(k, h, compute)
}

// fill is get's locked path: it returns k's value once it has landed,
// waiting while another lookup computes it, or else claims k's slot,
// computes the value with mu released and publishes it.
func (t *memo[K, V]) fill(k K, h uint64, compute func() V) (V, bool) {
	t.mu.Lock()
	for tab := t.tab.Load(); tab != nil; tab = t.tab.Load() {
		s := tab.find(k, h)
		if s == nil {
			break
		}
		if s.state.Load() == slotDone {
			v := s.v
			t.mu.Unlock()
			return v, false
		}
		t.landed.Wait()
	}
	var zero V
	t.reserve().claim(k, h, zero, slotPending)
	t.mu.Unlock()

	v := compute()

	t.mu.Lock()
	s := t.tab.Load().find(k, h)
	s.v = v
	s.state.Store(slotDone)
	t.landed.Broadcast()
	t.mu.Unlock()
	return v, true
}

// reserve makes room for one more key and returns the table to claim it
// in: the current one, or a published copy twice its size if one more
// key would fill the current one past half. Called under mu.
func (t *memo[K, V]) reserve() *memoTable[K, V] {
	t.used++
	tab := t.tab.Load()
	if tab != nil && 2*t.used <= len(tab.slots) {
		return tab
	}
	n := minSlots
	if tab != nil {
		n = 2 * len(tab.slots)
	}
	next := &memoTable[K, V]{slots: make([]memoSlot[K, V], n), shift: uint(64 - bits.TrailingZeros(uint(n)))}
	if tab != nil {
		for i := range tab.slots {
			if s := &tab.slots[i]; s.state.Load() != slotEmpty {
				next.claim(s.key, s.key.hash(t.seed), s.v, s.state.Load())
			}
		}
	}
	t.tab.Store(next)
	return next
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

// sigValid reports whether m's signature under key is valid, memoized
// by key and m's sealed digest. A signature or key of the wrong length is
// rejected without touching the cache.
func (vc *VerifyCache) sigValid(m *Metadata, key ed25519.PublicKey) bool {
	if len(m.sig) != ed25519.SignatureSize || len(key) != ed25519.PublicKeySize {
		return false
	}
	vc.sigLookups.Add(1)
	k := SigKey{Key: [ed25519.PublicKeySize]byte(key), Sum: m.sum}
	valid, verified := vc.sigs.get(k, func() bool { return ed25519.Verify(key, m.canon, m.sig) })
	if verified {
		vc.sigVerifies.Add(1)
	}
	return valid
}

// attest returns the cached cross-check of b's director targets against
// its image targets and payloads, building it on first sight.
func (vc *VerifyCache) attest(b *Bundle) *attestation {
	vc.attestLookups.Add(1)
	a, built := vc.attests.get(b, func() *attestation { return buildAttestation(b) })
	if built {
		vc.attestBuilds.Add(1)
	}
	return a
}

// buildAttestation performs the vehicle-independent half of apply: every
// director target must be attested byte-for-byte by the image repository
// and backed by a payload matching its length and hash.
func buildAttestation(b *Bundle) *attestation {
	imageByName := make(map[string]Target, len(b.Image.targets))
	for _, t := range b.Image.targets {
		imageByName[t.Name] = t
	}
	a := &attestation{plan: make([]Target, 0, len(b.Director.targets))}
	for _, t := range b.Director.targets {
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
//     the vehicle is up to date, nothing installs, nothing is rejected —
//     if it is the very metadata the client installed, and is rejected
//     as ErrEquivocation if it is other metadata signed at those
//     versions;
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
			c.obsTr.Instant(now, c.obsSub, c.obsInstall, c.obsTr.Label(c.VehicleID), int64(len(b.Director.targets)), 0)
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
	// Signatures first (memoized), then per-vehicle freshness.
	if !vc.sigValid(b.Director, c.directorKey) {
		return fmt.Errorf("%w: repo %s", ErrBadSignature, b.Director.repo)
	}
	if !vc.sigValid(b.Image, c.imageKey) {
		return fmt.Errorf("%w: repo %s", ErrBadSignature, b.Image.repo)
	}
	if err := checkFresh(b.Director, now); err != nil {
		return err
	}
	if err := checkFresh(b.Image, now); err != nil {
		return err
	}
	if b.Director.vehicleID != c.VehicleID && (c.Group == "" || b.Director.vehicleID != c.Group) {
		return fmt.Errorf("%w: %q", ErrWrongVehicle, b.Director.vehicleID)
	}
	// Version counters. Exactly-current metadata on both repositories is
	// the freshness re-check a polling vehicle performs every campaign
	// wave; other metadata signed at those versions is equivocation, and
	// anything at or below the high-water mark otherwise is replay.
	if b.Director.version == c.lastDirectorVersion && b.Image.version == c.lastImageVersion {
		if b.Director.sum != c.directorSum || b.Image.sum != c.imageSum {
			return fmt.Errorf("%w: director version %d, image version %d", ErrEquivocation, b.Director.version, b.Image.version)
		}
		return ErrNoUpdate
	}
	if b.Director.version <= c.lastDirectorVersion {
		return fmt.Errorf("%w: repo %s version %d <= %d", ErrRollback, b.Director.repo, b.Director.version, c.lastDirectorVersion)
	}
	if b.Image.version <= c.lastImageVersion {
		return fmt.Errorf("%w: repo %s version %d <= %d", ErrRollback, b.Image.repo, b.Image.version, c.lastImageVersion)
	}

	a := vc.attest(b)
	if a.err != nil {
		return a.err
	}
	if err := c.stage(a.plan, true); err != nil {
		return err
	}
	c.commit(b)
	return nil
}
